// perfbench entry point: set-up (repeated), serial bitwise gate, closed-loop
// timed requests, optional traced run with per-layer metrics, and the
// result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// The last stdout line is the JSON result: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer ones. DIR receives a full JSON
// report and, when traced, a Chrome trace-event file.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v, have[0] = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v), have[1] = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v), have[2] = true;
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0, have[3] = true;
      } else if (k == "--out-dir") {
        a.out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2 == 1) && have[0] && have[1] && have[2] && have[3] &&
         a.seconds > 0.0;
}

struct LoopStats {
  std::vector<double> latencies;  // requests that completed and passed
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::string first_error;
};

/// One client sends request after request for `seconds` (at least one).
LoopStats closed_loop(Workload& wl, double seconds, int first_id, Tracer* tr,
                      Layers* layers) {
  LoopStats st;
  spchol::WallTimer wall;
  for (int id = first_id; st.attempted == 0 || wall.seconds() < seconds;
       ++id) {
    if (tr != nullptr) tr->set_request(id);
    double latency = 0.0;
    bool ok = false;
    try {
      ok = wl.request(id, tr, layers, &latency);
    } catch (const std::exception& e) {
      if (st.first_error.empty()) st.first_error = e.what();
    }
    ++st.attempted;
    if (ok) {
      st.latencies.push_back(latency);
    } else {
      ++st.failed;
    }
  }
  st.wall_s = wall.seconds();
  return st;
}

/// Highest integer percentile (nearest rank, >= p50) with at least ten
/// samples beyond it; falls back to the maximum (p100, none beyond).
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v.back();
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    if (rank >= 1 && n - rank >= 10) {
      t = {v[rank - 1], p, n - rank};
      break;
    }
  }
  return t;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// {"name": {"value": v, "unit": u}, ...} — the result line's metrics.
std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_quote(ms[i].name) +
           ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + json_quote(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string loop_json(const LoopStats& st, bool with_latencies) {
  const Tail t = tail_of(st.latencies);
  std::ostringstream o;
  o << "{\"attempted\": " << st.attempted << ", \"failed\": " << st.failed
    << ", \"samples\": " << st.latencies.size()
    << ", \"wall_s\": " << num(st.wall_s)
    << ", \"latency_p50_s\": " << num(median(st.latencies))
    << ", \"latency_tail_s\": " << num(t.value)
    << ", \"tail_percentile\": " << t.percentile
    << ", \"tail_samples_beyond\": " << t.beyond
    << ", \"requests_per_s\": "
    << num(static_cast<double>(st.latencies.size()) / st.wall_s)
    << ", \"first_error\": " << json_quote(st.first_error);
  if (with_latencies) {
    o << ", \"latencies_s\": [";
    for (std::size_t i = 0; i < st.latencies.size(); ++i) {
      o << (i ? ", " : "") << num(st.latencies[i]);
    }
    o << "]";
  }
  o << "}";
  return o.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Args& args) {
  const Host host = detect_host();
  const auto wl = make_workload(args.workload, host, args.seed);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    if (tr != nullptr) tr->set_request(-1);
    spchol::WallTimer t;
    wl->setup(tr);
    setup_s.push_back(t.seconds());
  }
  spchol::WallTimer check_timer;
  const std::string mismatch = wl->check_against_serial();
  const double check_s = check_timer.seconds();

  // Untraced loop; a traced run splits its time between an untraced and
  // a traced loop so the tracing overhead is measured in one process.
  Layers layers;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const LoopStats plain = closed_loop(*wl, untraced_s, 0, nullptr, nullptr);
  LoopStats traced;
  if (tr != nullptr) {
    traced = closed_loop(*wl, args.seconds - untraced_s, 1 << 20, tr, &layers);
    layers.add("trace.overhead_s",
               median(traced.latencies) - median(plain.latencies), "loops");
    tr->set_request(-2);
    wl->finish_layers(tr, layers);
  }
  const double rss = peak_rss_mib();

  const std::size_t attempted = plain.attempted + traced.attempted;
  const std::size_t failed = plain.failed + traced.failed;
  const bool correct = mismatch.empty() && failed == 0;
  const std::string tag = args.workload + "_seed" + std::to_string(args.seed);

  // ---- report file + human summary -----------------------------------------
  std::ostringstream threads;
  threads << "{";
  bool first = true;
  for (const auto& [k, v] : wl->thread_record()) {
    threads << (first ? "" : ", ") << json_quote(k) << ": " << num(v);
    first = false;
  }
  threads << "}";
  std::ostringstream host_json;
  host_json << "{\"nproc\": " << host.nproc
            << ", \"hardware_concurrency\": " << host.hw_concurrency
            << ", \"cpu_model\": " << json_quote(host.cpu_model)
            << ", \"workers\": " << host.workers
            << ", \"crew\": " << host.crew << ", \"resolved\": "
            << threads.str() << "}";

  const double p50 = median(plain.latencies);
  const Tail tail = tail_of(plain.latencies);
  const double rps =
      static_cast<double>(plain.latencies.size()) / plain.wall_s;
  const double ok_frac = static_cast<double>(plain.attempted - plain.failed) /
                         static_cast<double>(plain.attempted);
  const double setup_med = median(setup_s);

  const std::string e2e = metrics_json({{"latency_p50_s", p50, "s"},
                                        {"latency_tail_s", tail.value, "s"},
                                        {"requests_per_s", rps, "1/s"},
                                        {"ok_frac", ok_frac, "fraction"},
                                        {"setup_s", setup_med, "s"},
                                        {"peak_rss_mib", rss, "MiB"}});
  std::vector<Metric> per_layer;
  for (const MetricDef& m : per_layer_catalogue()) {
    if (!args.trace) break;
    if (!layers.has(m.name)) {
      std::cerr << "perfbench: per-layer metric " << m.name
                << " was not measured\n";
      return 1;
    }
    per_layer.push_back({m.name, median(layers.samples().at(m.name)), m.unit});
  }
  std::ostringstream per_layer_detail;
  per_layer_detail << "{";
  first = true;
  for (const auto& [name, v] : layers.samples()) {
    per_layer_detail << (first ? "" : ", ") << json_quote(name)
                     << ": {\"median\": " << num(median(v))
                     << ", \"samples\": " << v.size()
                     << ", \"source\": " << json_quote(layers.source(name)) << "}";
    first = false;
  }
  per_layer_detail << "}";

  std::ostringstream setup_list;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setup_list << (i ? ", " : "") << num(setup_s[i]);
  }

  std::filesystem::create_directories(args.out_dir);
  const std::string report_path = args.out_dir + "/report_" + tag +
                                  "_trace" + (args.trace ? "1" : "0") +
                                  ".json";
  {
    std::ofstream f(report_path);
    f << "{\"workload\": " << json_quote(args.workload)
      << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds)
      << ", \"trace\": " << (args.trace ? "true" : "false")
      << ",\n \"host\": " << host_json.str()
      << ",\n \"setup_s\": {\"reps\": [" << setup_list.str()
      << "], \"median\": " << num(setup_med) << "}"
      << ",\n \"serial_check\": {\"match\": "
      << (mismatch.empty() ? "true" : "false")
      << ", \"detail\": " << json_quote(mismatch)
      << ", \"seconds\": " << num(check_s) << "}"
      << ",\n \"untraced_loop\": " << loop_json(plain, true);
    if (args.trace) {
      f << ",\n \"traced_loop\": " << loop_json(traced, true)
        << ",\n \"per_layer_samples\": " << per_layer_detail.str();
    }
    f << ",\n \"end_to_end\": " << e2e << "}\n";
  }
  if (tr != nullptr) {
    tracer.write_chrome(args.out_dir + "/trace_" + tag + ".json",
                        host_json.str());
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: %s\n", host_json.str().c_str());
  std::printf("setup_s: [%s] median %.4f\n", setup_list.str().c_str(),
              setup_med);
  std::printf("serial bitwise check (%.2f s): %s\n", check_s,
              mismatch.empty() ? "match" : mismatch.c_str());
  std::printf("untraced loop: %s\n", loop_json(plain, false).c_str());
  if (args.trace) {
    std::printf("traced loop:   %s\n", loop_json(traced, false).c_str());
    std::printf("tracing overhead (traced - untraced p50): %.6f s\n",
                median(traced.latencies) - median(plain.latencies));
    std::printf("per-layer: %s\n", per_layer_detail.str().c_str());
  }
  if (!plain.first_error.empty() || !traced.first_error.empty()) {
    std::fprintf(stderr, "perfbench: request error: %s\n",
                 (plain.first_error + traced.first_error).c_str());
  }
  if (!mismatch.empty()) {
    std::fprintf(stderr, "perfbench: serial bitwise check failed: %s\n",
                 mismatch.c_str());
  }
  std::printf("report: %s\n", report_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? metrics_json(per_layer).c_str() : e2e.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload {cold_pflow|warm_serena|"
                 "solve_serena} --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
