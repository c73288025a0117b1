// The three closed-loop workloads. Request values are a seeded symmetric
// diagonal scaling D·A·D of the dataset matrix (same pattern, still SPD);
// right-hand sides are seeded too.
#include <cstring>
#include <optional>

#include "bench.hpp"

namespace perfbench {

using namespace spchol;

namespace {

// Stream ids of the setup inputs (requests use ids >= 0).
constexpr std::int64_t kSetupStream = -1;

FactorOptions serial_factor_options(FactorOptions o) {
  o.exec = Execution::kCpuSerial;
  o.cpu_workers = 1;
  return o;
}

SolveOptions serial_solve_options() {
  SolveOptions o;
  o.exec = Execution::kCpuSerial;
  o.workers = 1;
  return o;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Relative residual of every column of a column-major n × nrhs block.
bool residuals_ok(const CscMatrix& a, std::span<const double> x,
                  std::span<const double> b, index_t nrhs) {
  const auto n = static_cast<std::size_t>(a.cols());
  for (index_t c = 0; c < nrhs; ++c) {
    const auto off = static_cast<std::size_t>(c) * n;
    if (!(relative_residual(a, x.subspan(off, n), b.subspan(off, n)) <=
          kResidualLimit)) {
      return false;
    }
  }
  return true;
}

/// Compares a factor's values and a solve against a kCpuSerial run.
std::string compare_with_serial(const CscMatrix& a, const SymbolicFactor& symb,
                                const FactorOptions& opts,
                                std::span<const double> values,
                                std::span<const double> b,
                                std::span<const double> x, index_t nrhs) {
  const CholeskyFactor ref =
      CholeskyFactor::factorize(a, symb, serial_factor_options(opts));
  if (!bitwise_equal(ref.values(), values)) {
    return "factor values differ from the kCpuSerial factor";
  }
  std::vector<double> xs(b.size());
  ref.solve_multi(b, xs, nrhs, serial_solve_options());
  if (!bitwise_equal(xs, x)) return "solution differs from the serial sweep";
  return "";
}

// ---- cold_pflow ---------------------------------------------------------------------

/// PFlow_742 analog, full one-shot pipeline per request: the calls
/// CholeskySolver makes (order → analyze → factorize → scheduled solve).
class ColdPflow final : public Workload {
 public:
  ColdPflow(const Host& host, std::uint64_t seed) : host_(host), seed_(seed) {
    ord_.workers = host.workers;
    an_.workers = host.workers;
    fo_.method = Method::kRL;
    fo_.exec = Execution::kCpuParallel;
    fo_.cpu_workers = host.workers;
    so_.exec = Execution::kCpuParallel;
    so_.workers = host.workers;
    so_.rhs_panel = 8;
  }

  void setup(Tracer* tr) override {
    a0_ = dataset_entry("PFlow_742").make();
    a_ = a0_;
    warm_.reset();
    double latency = 0.0;
    run(kSetupStream, tr, nullptr, &latency);
  }

  bool request(int id, Tracer* tr, Layers* layers, double* latency) override {
    return run(id, tr, layers, latency);
  }

  std::string check_against_serial() override {
    const Warm& w = *warm_;
    OrderingOptions ord;
    ord.workers = 1;
    AnalyzeOptions an;
    an.workers = 1;
    const Permutation perm = compute_ordering(w.a, ord);
    if (perm.new_to_old() != w.perm.new_to_old()) {
      return "ordering differs from the serial ordering";
    }
    const SymbolicFactor symb = SymbolicFactor::analyze(w.a, perm, an);
    return compare_with_serial(w.a, symb, fo_, w.factor->values(), w.b, w.x,
                               1);
  }

  void finish_layers(Tracer* tr, Layers& layers) override {
    Layers probes;
    probe_service(a0_, host_, tr, probes);
    probe_dense(probe_analyze(dataset_entry("Serena").make(), host_, nullptr,
                              probes),
                probes);
    layers.fill_missing(probes);
  }

  std::map<std::string, double> thread_record() const override {
    return threads_;
  }

 private:
  struct Warm {
    CscMatrix a;
    Permutation perm;
    std::optional<CholeskyFactor> factor;
    std::vector<double> b, x;
  };

  bool run(std::int64_t id, Tracer* tr, Layers* layers, double* latency) {
    const std::uint64_t s = stream_seed(seed_, id);
    scale_into(a0_, s, a_);
    std::vector<double> b = random_rhs(a_.cols(), 1, s);
    std::vector<double> x(b.size());
    OrderingStats os;
    SolveStats ss;
    WallTimer t;
    Span sp_order(tr, "graph.order");
    Permutation perm = compute_ordering(a_, ord_, &os);
    const double order_s = sp_order.end();
    Span sp_analyze(tr, "symbolic.analyze");
    const SymbolicFactor symb = SymbolicFactor::analyze(a_, perm, an_);
    const double analyze_s = sp_analyze.end();
    Span sp_factor(tr, "core.factorize");
    CholeskyFactor f = CholeskyFactor::factorize(a_, symb, fo_);
    const double factor_s = sp_factor.end();
    Span sp_solve(tr, "core.solve");
    f.solve(b, x, so_, &ss);
    const double solve_s = sp_solve.end();
    *latency = t.seconds();

    const FactorStats& st = f.stats();
    threads_ = {{"ordering.workers", static_cast<double>(os.workers)},
                {"analyze.workers", static_cast<double>(symb.stats().workers)},
                {"factor.scheduler_workers",
                 static_cast<double>(st.scheduler_workers)},
                {"solve.workers", static_cast<double>(ss.workers)}};
    if (layers != nullptr) {
      layers->add("graph.order_s", order_s);
      layers->add("graph.nd_pieces", static_cast<double>(os.pieces));
      layers->add("symbolic.analyze_s", analyze_s);
      layers->add("symbolic.supernodes", symb.num_supernodes());
      layers->add("symbolic.factor_nnz",
                  static_cast<double>(symb.factor_nnz()));
      record_factor_stats(st, factor_s, *layers);
      layers->add("core.solve_s", solve_s);
      layers->add("core.solve_tasks", static_cast<double>(ss.tasks));
      layers->add("core.solve_bytes_computed",
                  solve_bytes_computed(symb, 1, ss.rhs_panels));
    }
    const bool ok = relative_residual(a_, x, b) <= kResidualLimit;
    if (id == kSetupStream) {
      warm_ = Warm{a_, std::move(perm), std::move(f), std::move(b),
                   std::move(x)};
    }
    return ok;
  }

  Host host_;
  std::uint64_t seed_;
  OrderingOptions ord_;
  AnalyzeOptions an_;
  FactorOptions fo_;
  SolveOptions so_;
  CscMatrix a0_, a_;
  std::optional<Warm> warm_;
  std::map<std::string, double> threads_;
};

// ---- Serena workloads ----------------------------------------------------------------

/// Shared setup of the two Serena workloads: the dataset matrix, a
/// SolverService with the RL hybrid configuration, and one session
/// factored on the setup matrix.
class SerenaBase : public Workload {
 protected:
  SerenaBase(const Host& host, std::uint64_t seed, index_t nrhs)
      : host_(host), seed_(seed), nrhs_(nrhs),
        opts_(hybrid_service_options(host)) {}

  /// Generates the matrix, opens a fresh service and session (cache
  /// miss), factors the setup matrix and solves the setup RHS once.
  void open(Tracer* tr) {
    session_.reset();
    service_.reset();
    a0_ = dataset_entry("Serena").make();
    setup_a_ = a0_;
    scale_into(a0_, stream_seed(seed_, kSetupStream), setup_a_);
    service_ = std::make_unique<SolverService>(opts_);
    {
      Span sp(tr, "service.session");
      session_ = service_->session(setup_a_);
    }
    {
      Span sp(tr, "core.factorize");
      session_->factorize(setup_a_);
    }
    setup_b_ = random_rhs(a0_.cols(), nrhs_, stream_seed(seed_, kSetupStream));
    Span sp(tr, "core.solve");
    setup_x_ = session_->solve_multi(setup_b_, nrhs_);
  }

  std::string check_against_serial() override {
    return compare_with_serial(setup_a_, session_->symbolic(),
                               opts_.solver.factor,
                               session_->factor()->values(), setup_b_,
                               setup_x_, nrhs_);
  }

  /// Probes every layer the requests left unmeasured and records the
  /// service's end-of-run counters.
  void finish_layers(Tracer* tr, Layers& layers) override {
    const ServiceStats ss = service_->stats();
    layers.add("service.cache_hits", static_cast<double>(ss.cache_hits));
    layers.add("service.cache_misses", static_cast<double>(ss.cache_misses));
    layers.add("service.pool_hits", static_cast<double>(ss.runtime.pool_hits));
    layers.add("service.admission_waits",
               static_cast<double>(ss.runtime.admission_waits));
    Layers probes;
    probe_dense(probe_analyze(a0_, host_, tr, probes), probes);
    if (!layers.has("core.factorize_s")) {
      probe_service(setup_a_, host_, tr, probes);
    }
    layers.fill_missing(probes);
  }

  std::map<std::string, double> thread_record() const override {
    const SessionStats st = session_->stats();
    return {{"runtime.crew", static_cast<double>(service_->runtime().workers())},
            {"factor.scheduler_workers",
             static_cast<double>(st.last_factor.scheduler_workers)},
            {"solve.workers", static_cast<double>(st.last_solve.workers)}};
  }

  void record_solve(const SolveStats& ss, double solve_s, Layers& layers) {
    layers.add("core.solve_s", solve_s);
    layers.add("core.solve_tasks", static_cast<double>(ss.tasks));
    layers.add("core.solve_bytes_computed",
               solve_bytes_computed(session_->symbolic(), nrhs_,
                                    ss.rhs_panels));
  }

  Host host_;
  std::uint64_t seed_;
  index_t nrhs_;
  ServiceOptions opts_;
  CscMatrix a0_, setup_a_;
  std::vector<double> setup_b_, setup_x_;
  std::unique_ptr<SolverService> service_;
  std::shared_ptr<SolverSession> session_;
};

/// Serena analog, warm refactorization per request: session (cache hit)
/// → factorize → solve with one RHS on the RL hybrid configuration.
class WarmSerena final : public SerenaBase {
 public:
  WarmSerena(const Host& host, std::uint64_t seed) : SerenaBase(host, seed, 1) {}

  void setup(Tracer* tr) override {
    open(tr);
    a_ = a0_;
    double latency = 0.0;
    request(-2, tr, nullptr, &latency);  // first warm (cache-hit) request
  }

  bool request(int id, Tracer* tr, Layers* layers, double* latency) override {
    const std::uint64_t s = stream_seed(seed_, id);
    scale_into(a0_, s, a_);
    const std::vector<double> b = random_rhs(a_.cols(), 1, s);
    WallTimer t;
    Span sp_session(tr, "service.session");
    const auto session = service_->session(a_);
    const double session_s = sp_session.end();
    Span sp_factor(tr, "core.factorize");
    session->factorize(a_);
    const double factor_s = sp_factor.end();
    Span sp_solve(tr, "core.solve");
    const std::vector<double> x = session->solve(b);
    const double solve_s = sp_solve.end();
    *latency = t.seconds();
    if (layers != nullptr) {
      const SessionStats st = session->stats();
      layers->add("service.session_s", session_s);
      record_factor_stats(st.last_factor, factor_s, *layers);
      record_gpu_stats(st.last_factor, *layers);
      record_solve(st.last_solve, solve_s, *layers);
    }
    return relative_residual(a_, x, b) <= kResidualLimit;
  }

 private:
  CscMatrix a_;  // request matrix: D·a0·D
};

/// Serena analog factored once in setup; each request is one scheduled
/// solve_multi over 32 seeded right-hand sides.
class SolveSerena final : public SerenaBase {
 public:
  static constexpr index_t kRhs = 32;
  SolveSerena(const Host& host, std::uint64_t seed)
      : SerenaBase(host, seed, kRhs) {}

  void setup(Tracer* tr) override { open(tr); }

  bool request(int id, Tracer* tr, Layers* layers, double* latency) override {
    const std::vector<double> b =
        random_rhs(a0_.cols(), kRhs, stream_seed(seed_, id));
    WallTimer t;
    Span sp_solve(tr, "core.solve");
    const std::vector<double> x = session_->solve_multi(b, kRhs);
    const double solve_s = sp_solve.end();
    *latency = t.seconds();
    if (layers != nullptr) {
      record_solve(session_->stats().last_solve, solve_s, *layers);
    }
    return residuals_ok(setup_a_, x, b, kRhs);
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Host& host,
                                        std::uint64_t seed) {
  if (name == "cold_pflow") return std::make_unique<ColdPflow>(host, seed);
  if (name == "warm_serena") return std::make_unique<WarmSerena>(host, seed);
  if (name == "solve_serena") return std::make_unique<SolveSerena>(host, seed);
  return nullptr;
}

}  // namespace perfbench
