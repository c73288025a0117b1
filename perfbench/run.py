#!/usr/bin/env python3
"""Build and run the spchol benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload {cold_pflow,warm_serena,solve_serena} \
        --seed N --seconds S --trace {0,1}

Builds the library and the perfbench binary from source with CMake (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, prints its summary and then its result as the last stdout line.
Build output goes to stderr. Exits non-zero without a result when the
sources are missing or the build or run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_pflow", "warm_serena", "solve_serena")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "spchol" / "spchol.hpp"
    ).is_file():
        fail(f"spchol sources not found under {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", str(bdir / "out")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"run failed with exit code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
