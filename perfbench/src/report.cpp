// Host record, span recorder, per-layer sample sets and input generators.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

// CPU brand string from CPUID (no file outside the checkout is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop trailing NULs
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

Host detect_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) h.nproc = CPU_COUNT(&set);
  if (h.nproc < 1) h.nproc = 1;
  h.hw_concurrency = std::max(1u, std::thread::hardware_concurrency());
  h.cpu_model = cpu_model();
  h.workers = std::max(1, h.nproc / 2);
  h.crew = std::max(1, h.workers - 1);
  return h;
}

// ---- Tracer ---------------------------------------------------------------------

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

int Tracer::open(const char* name) {
  Record s;
  s.name = name;
  s.request = request_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].t1_us = now_us();
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& metadata_json) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata_json
    << ",\n \"traceEvents\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    const auto dot = s.name.find('.');
    const std::string layer = s.name.substr(0, dot);
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", s.t0_us,
                  s.t1_us - s.t0_us);
    f << "  {\"name\": " << json_quote(s.name)
      << ", \"cat\": " << json_quote(layer) << ", \"ph\": \"X\", " << buf
      << ", \"pid\": 1, \"tid\": 1, \"args\": {\"request\": " << s.request
      << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

// ---- Layers ---------------------------------------------------------------------

void Layers::add(const std::string& name, double value, const char* source) {
  samples_[name].push_back(value);
  source_.emplace(name, source);
}

void Layers::fill_missing(const Layers& other) {
  for (const auto& [name, values] : other.samples_) {
    if (has(name)) continue;
    samples_[name] = values;
    source_[name] = other.source_.at(name);
  }
}

const std::vector<MetricDef>& per_layer_catalogue() {
  static const std::vector<MetricDef> c = {
      {"graph.order_s", "s"},
      {"graph.nd_pieces", "count"},
      {"symbolic.analyze_s", "s"},
      {"symbolic.supernodes", "count"},
      {"symbolic.factor_nnz", "count"},
      {"support.scheduler_tasks", "count"},
      {"support.scheduler_steals", "count"},
      {"support.scheduler_chain_waits", "count"},
      {"core.factorize_s", "s"},
      {"core.flops", "flop"},
      {"core.factor_gflops", "GF/s"},
      {"core.solve_s", "s"},
      {"core.solve_tasks", "count"},
      {"core.solve_bytes_computed", "B"},
      {"dense.gemm_gflops", "GF/s"},
      {"dense.syrk_gflops", "GF/s"},
      {"dense.trsm_gflops", "GF/s"},
      {"dense.potrf_gflops", "GF/s"},
      {"dense.gemm_flops_per_byte", "flop/B"},
      {"dense.syrk_flops_per_byte", "flop/B"},
      {"dense.trsm_flops_per_byte", "flop/B"},
      {"dense.potrf_flops_per_byte", "flop/B"},
      {"gpu.supernodes", "count"},
      {"gpu.kernels", "count"},
      {"gpu.peak_bytes", "B"},
      {"gpu.h2d_bytes", "B"},
      {"gpu.d2h_bytes", "B"},
      {"gpu.modeled_s", "modeled_s"},
      {"service.session_s", "s"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.pool_hits", "count"},
      {"service.admission_waits", "count"},
      {"trace.overhead_s", "s"},
  };
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---- inputs ---------------------------------------------------------------------

std::uint64_t stream_seed(std::uint64_t seed, std::int64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL ^
         (static_cast<std::uint64_t>(stream) + 0x632be59bd9b4e019ULL);
}

void scale_into(const CscMatrix& a0, std::uint64_t rng_seed, CscMatrix& out) {
  spchol::Rng rng(rng_seed);
  std::vector<double> d(static_cast<std::size_t>(a0.cols()));
  for (double& v : d) v = rng.uniform(0.5, 2.0);
  const auto& cp = a0.colptr();
  const auto& ri = a0.rowind();
  const auto& v0 = a0.values();
  auto& v = out.mutable_values();
  for (index_t j = 0; j < a0.cols(); ++j) {
    for (auto k = cp[j]; k < cp[j + 1]; ++k) v[k] = v0[k] * d[ri[k]] * d[j];
  }
}

std::vector<double> random_rhs(index_t n, index_t nrhs,
                               std::uint64_t rng_seed) {
  spchol::Rng rng(rng_seed);
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

double solve_bytes_computed(const spchol::SymbolicFactor& symb, index_t nrhs,
                            index_t rhs_panels) {
  double rows = 0.0;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) rows += symb.sn_nrows(s);
  const double panels = std::max<index_t>(1, rhs_panels);
  const double per_sweep =
      panels * (8.0 * static_cast<double>(symb.factor_values()) + 4.0 * rows) +
      16.0 * rows * nrhs;
  return 2.0 * per_sweep;
}

}  // namespace perfbench
