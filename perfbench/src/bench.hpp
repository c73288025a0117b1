// perfbench: the repository's end-to-end benchmark. Three closed-loop
// workloads (one client, each request sent after the previous one
// returns) drive the public spchol API; see ../README.md for what each
// workload measures and which per-layer metric should move which
// end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spchol/dense/kernels.hpp"
#include "spchol/spchol.hpp"
#include "spchol/support/rng.hpp"
#include "spchol/support/timer.hpp"

namespace perfbench {

using spchol::CscMatrix;
using spchol::index_t;

// ---- host and thread record -------------------------------------------------

struct Host {
  int nproc = 1;                 ///< CPUs this process may run on
  unsigned hw_concurrency = 1;   ///< size of ThreadPool::global()
  std::string cpu_model;
  /// Worker count of every per-call task DAG (ordering, analysis,
  /// factorization, solve): half the CPUs. On a shared host whose CPUs
  /// are oversubscribed, a run on every CPU slowed up to 2x when the
  /// host stole CPU time; a run on half of them moved far less.
  int workers = 1;
  /// SolverRuntime crew threads; the calling thread joins the crew, so
  /// crew + 1 == workers (never below 1).
  int crew = 1;
};

Host detect_host();

// ---- span recorder ------------------------------------------------------------

/// In-memory span recorder. A disabled recorder is a null pointer: every
/// call site takes a `Tracer*` and a null one records nothing.
class Tracer {
 public:
  Tracer();

  /// Request id stamped on spans opened from now on (-1 setup, -2 probe).
  void set_request(int id) { request_ = id; }

  int open(const char* name);
  void close(int idx);

  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  void write_chrome(const std::string& path,
                    const std::string& metadata_json) const;

 private:
  struct Record {
    std::string name;
    int request = 0;
    int parent = -1;
    double t0_us = 0.0;
    double t1_us = 0.0;
  };
  double now_us() const;

  std::int64_t epoch_ns_ = 0;
  int request_ = -1;
  std::vector<int> open_;  // stack of open span indices (parents)
  std::vector<Record> spans_;
};

/// RAII span around one public call. It always times itself; it is
/// recorded only when `t` is non-null.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), idx_(t ? t->open(name) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its wall seconds.
  double end() {
    if (!ended_) {
      seconds_ = timer_.seconds();
      if (t_ != nullptr) t_->close(idx_);
      ended_ = true;
    }
    return seconds_;
  }

 private:
  Tracer* t_;
  int idx_;
  spchol::WallTimer timer_;
  bool ended_ = false;
  double seconds_ = 0.0;
};

// ---- per-layer samples ----------------------------------------------------------

/// Samples of the per-layer metrics, keyed by metric name. Each metric
/// remembers where its samples came from ("requests" or a probe name).
class Layers {
 public:
  void add(const std::string& name, double value,
           const char* source = "requests");
  bool has(const std::string& name) const { return samples_.count(name) > 0; }
  /// Copies in every metric of `other` this set does not have yet.
  void fill_missing(const Layers& other);

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  const std::string& source(const std::string& name) const {
    return source_.at(name);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> source_;
};

/// Per-layer metric catalogue, in report order: (name, unit).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& per_layer_catalogue();

// ---- workloads --------------------------------------------------------------------

/// One closed-loop workload. setup() is run several times (the last
/// setup is the one the timed loop uses); request() performs request
/// `id`, stores its wall latency and returns whether it passed the
/// residual gate. Inputs derive from (seed, id) only.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer* tr) = 0;
  virtual bool request(int id, Tracer* tr, Layers* layers,
                       double* latency_s) = 0;
  /// Bitwise comparison of the last setup's factor values and solution
  /// against a kCpuSerial run on the same matrix. Empty string = match.
  virtual std::string check_against_serial() = 0;
  /// Fills per-layer metrics the requests never reach (traced runs only):
  /// probes on this workload's own matrix plus end-of-run counters.
  virtual void finish_layers(Tracer* tr, Layers& layers) = 0;
  /// Resolved worker counts, read back from the library's stats.
  virtual std::map<std::string, double> thread_record() const = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Host& host, std::uint64_t seed);

// ---- shared helpers -----------------------------------------------------------------

/// `s` as a JSON string literal (quotes and backslashes escaped, control
/// characters dropped).
std::string json_quote(const std::string& s);

/// Median of `v` (NaN when empty).
double median(std::vector<double> v);

/// Residual gate of every request.
inline constexpr double kResidualLimit = 1e-10;

/// Deterministic per-(seed, stream) RNG seed.
std::uint64_t stream_seed(std::uint64_t seed, std::int64_t stream);

/// out := D·a0·D for a seeded diagonal D with entries in [0.5, 2]: same
/// pattern, still SPD. `out` must already have a0's pattern.
void scale_into(const CscMatrix& a0, std::uint64_t rng_seed, CscMatrix& out);

/// Seeded right-hand sides, n × nrhs column-major, entries in [-1, 1].
std::vector<double> random_rhs(index_t n, index_t nrhs, std::uint64_t rng_seed);

/// Bytes a scheduled solve must stream, computed from array sizes: per
/// sweep (forward and backward), every RHS panel task reads its
/// supernode's factor panel (8 B/entry) and row indices (4 B/row); every
/// RHS column is gathered and scattered once per supernode row (16 B).
double solve_bytes_computed(const spchol::SymbolicFactor& symb, index_t nrhs,
                            index_t rhs_panels);

/// Probes shared by the workloads (probes.cpp).
/// Ordering + symbolic analysis on `a`; fills graph.* and symbolic.*.
spchol::SymbolicFactor probe_analyze(const CscMatrix& a, const Host& host,
                                     Tracer* tr, Layers& out);
/// Single-thread dense kernels at the shapes of `symb`'s largest
/// supernodes; fills dense.*.
void probe_dense(const spchol::SymbolicFactor& symb, Layers& out);
/// One request through a fresh SolverService with the RL hybrid
/// configuration: fills service.*, gpu.*, support.* and core.factor*.
void probe_service(const CscMatrix& a, const Host& host, Tracer* tr,
                   Layers& out);

/// The RL hybrid configuration of the Serena workloads (paper's §III
/// threshold split on the 135 MiB dataset device, one stream).
spchol::ServiceOptions hybrid_service_options(const Host& host);

/// Records a factorization's scheduler and core counters (support.*,
/// core.factorize_s, core.flops, core.factor_gflops).
void record_factor_stats(const spchol::FactorStats& st, double factorize_s,
                         Layers& out, const char* source = "requests");
/// Records a factorization's device counters (gpu.*).
void record_gpu_stats(const spchol::FactorStats& st, Layers& out,
                      const char* source = "requests");

}  // namespace perfbench
