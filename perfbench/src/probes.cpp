// Layer probes of the traced run: each fills the per-layer metrics a
// workload's own requests do not reach, on that workload's matrix.
#include <algorithm>
#include <map>

#include "bench.hpp"

namespace perfbench {

using namespace spchol;

ServiceOptions hybrid_service_options(const Host& host) {
  ServiceOptions o;
  SolverOptions& s = o.solver;
  s.ordering_opts.workers = host.workers;
  s.analyze.workers = host.workers;
  s.factor.method = Method::kRL;
  s.factor.exec = Execution::kGpuHybrid;
  s.factor.gpu_threshold_rl = 60'000;
  s.factor.device.memory_bytes = 135ull << 20;  // the dataset device
  s.factor.gpu_streams = 1;
  s.factor.cpu_workers = host.workers;
  s.solve.exec = Execution::kCpuParallel;
  s.solve.workers = host.workers;
  s.solve.rhs_panel = 8;
  o.runtime.workers = host.crew;
  o.runtime.max_concurrent = 1;  // one closed-loop client
  o.runtime.device = s.factor.device;
  o.runtime.gpu_devices = 1;
  return o;
}

void record_factor_stats(const FactorStats& st, double factorize_s,
                         Layers& out, const char* source) {
  out.add("support.scheduler_tasks", static_cast<double>(st.scheduler_tasks),
          source);
  out.add("support.scheduler_steals",
          static_cast<double>(st.scheduler_steals), source);
  out.add("support.scheduler_chain_waits",
          static_cast<double>(st.scheduler_chain_waits), source);
  out.add("core.factorize_s", factorize_s, source);
  out.add("core.flops", st.flops, source);
  out.add("core.factor_gflops", st.flops / factorize_s * 1e-9, source);
}

void record_gpu_stats(const FactorStats& st, Layers& out, const char* source) {
  out.add("gpu.supernodes", st.supernodes_on_gpu, source);
  out.add("gpu.kernels", static_cast<double>(st.num_gpu_kernels), source);
  out.add("gpu.peak_bytes", static_cast<double>(st.device_peak_bytes), source);
  out.add("gpu.h2d_bytes", static_cast<double>(st.h2d_bytes), source);
  out.add("gpu.d2h_bytes", static_cast<double>(st.d2h_bytes), source);
  out.add("gpu.modeled_s", st.modeled_seconds, source);
}

SymbolicFactor probe_analyze(const CscMatrix& a, const Host& host, Tracer* tr,
                             Layers& out) {
  const char* src = "probe:analyze";
  OrderingOptions ord;
  ord.workers = host.workers;
  AnalyzeOptions an;
  an.workers = host.workers;
  OrderingStats os;
  Span order(tr, "graph.order");
  const Permutation perm = compute_ordering(a, ord, &os);
  out.add("graph.order_s", order.end(), src);
  out.add("graph.nd_pieces", static_cast<double>(os.pieces), src);
  Span analyze(tr, "symbolic.analyze");
  SymbolicFactor symb = SymbolicFactor::analyze(a, perm, an);
  out.add("symbolic.analyze_s", analyze.end(), src);
  out.add("symbolic.supernodes", symb.num_supernodes(), src);
  out.add("symbolic.factor_nnz", static_cast<double>(symb.factor_nnz()), src);
  return symb;
}

void probe_service(const CscMatrix& a, const Host& host, Tracer* tr,
                   Layers& out) {
  const char* src = "probe:service";
  SolverService service(hybrid_service_options(host));
  service.session(a);  // miss: ordering + analysis + plans, cached
  Span session(tr, "service.session");
  const auto s = service.session(a);  // hit: fingerprint + pattern compare
  out.add("service.session_s", session.end(), src);
  Span factorize(tr, "core.factorize");
  s->factorize(a);
  const double fs = factorize.end();
  const FactorStats st = s->stats().last_factor;
  record_factor_stats(st, fs, out, src);
  record_gpu_stats(st, out, src);
  const ServiceStats ss = service.stats();
  out.add("service.cache_hits", static_cast<double>(ss.cache_hits), src);
  out.add("service.cache_misses", static_cast<double>(ss.cache_misses), src);
  out.add("service.pool_hits", static_cast<double>(ss.runtime.pool_hits), src);
  out.add("service.admission_waits",
          static_cast<double>(ss.runtime.admission_waits), src);
}

// ---- dense kernel probe -----------------------------------------------------------

namespace {

/// Runs `kernel` after `reset` at least 3 and at most 9 times, until
/// 0.3 s of kernel time has accumulated; returns the median GF/s.
template <class Reset, class Kernel>
double time_kernel(double flops, Reset reset, Kernel kernel) {
  std::vector<double> gflops;
  double total = 0.0;
  for (int rep = 0; rep < 9 && (rep < 3 || total < 0.3); ++rep) {
    reset();
    WallTimer t;
    kernel();
    const double s = t.seconds();
    total += s;
    gflops.push_back(flops / s * 1e-9);
  }
  return median(gflops);
}

std::vector<double> random_block(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Diagonally dominant SPD matrix (lower triangle used), n × n.
std::vector<double> spd_block(index_t n, std::uint64_t seed) {
  std::vector<double> a = random_block(static_cast<std::size_t>(n) * n, seed);
  for (index_t i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = n + 1.0;
  return a;
}

}  // namespace

void probe_dense(const SymbolicFactor& symb, Layers& out) {
  const char* src = "probe:dense";
  // Shapes: POTRF at the widest supernode; TRSM and SYRK at the non-root
  // supernode with the largest update (below² · width) — RL's panel solve
  // and update matrix; GEMM at that supernode's off-diagonal update onto
  // its largest target (rows outside the target × target rows × width),
  // the RLB block product.
  index_t widest = 0;
  index_t big = -1;
  double big_work = 0.0;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    widest = std::max(widest, symb.sn_width(s));
    const double below = symb.sn_below(s);
    const double work = below * below * symb.sn_width(s);
    if (symb.sn_parent(s) >= 0 && work > big_work) {
      big = s;
      big_work = work;
    }
  }
  SPCHOL_CHECK(big >= 0, "dense probe: no supernode has an update");
  const index_t w = symb.sn_width(big);
  const index_t below = symb.sn_below(big);
  std::map<index_t, index_t> rows_per_target;
  for (index_t r : symb.sn_rows(big).subspan(static_cast<std::size_t>(w))) {
    rows_per_target[symb.col_to_sn(r)]++;
  }
  index_t gn = 0;
  for (const auto& [target, rows] : rows_per_target) gn = std::max(gn, rows);
  const index_t gm = below > gn ? below - gn : gn;

  const auto sz = [](index_t r, index_t c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(c);
  };

  // POTRF n = widest.
  {
    const index_t n = widest;
    const std::vector<double> a0 = spd_block(n, 11);
    std::vector<double> a;
    const double f = dense::flops_potrf(n);
    out.add("dense.potrf_gflops",
            time_kernel(f, [&] { a = a0; },
                        [&] { dense::potrf_lower(n, a.data(), n); }),
            src);
    out.add("dense.potrf_flops_per_byte", f / (8.0 * n * (n + 1.0)), src);
    out.add("dense.potrf_n", n, src);
  }
  // TRSM m = below, n = w against a factored w × w diagonal block.
  {
    std::vector<double> l = spd_block(w, 12);
    dense::potrf_lower(w, l.data(), w);
    const std::vector<double> b0 = random_block(sz(below, w), 13);
    std::vector<double> b;
    const double f = dense::flops_trsm(below, w);
    out.add("dense.trsm_gflops",
            time_kernel(f, [&] { b = b0; },
                        [&] {
                          dense::trsm_right_lower_trans(below, w, l.data(), w,
                                                        b.data(), below);
                        }),
            src);
    out.add("dense.trsm_flops_per_byte",
            f / (8.0 * (0.5 * w * (w + 1.0) + 2.0 * below * w)), src);
    out.add("dense.trsm_m", below, src);
    out.add("dense.trsm_n", w, src);
  }
  // SYRK n = below, k = w.
  {
    const std::vector<double> a = random_block(sz(below, w), 14);
    std::vector<double> c;
    const double f = dense::flops_syrk(below, w);
    out.add("dense.syrk_gflops",
            time_kernel(f, [&] { c.assign(sz(below, below), 0.0); },
                        [&] {
                          dense::syrk_lower_nt(below, w, a.data(), below,
                                               c.data(), below);
                        }),
            src);
    out.add("dense.syrk_flops_per_byte",
            f / (8.0 * (1.0 * below * w + below * (below + 1.0))), src);
    out.add("dense.syrk_n", below, src);
    out.add("dense.syrk_k", w, src);
  }
  // GEMM m = gm, n = gn, k = w.
  {
    const std::vector<double> a = random_block(sz(gm, w), 15);
    const std::vector<double> b = random_block(sz(gn, w), 16);
    std::vector<double> c;
    const double f = dense::flops_gemm(gm, gn, w);
    out.add("dense.gemm_gflops",
            time_kernel(f, [&] { c.assign(sz(gm, gn), 0.0); },
                        [&] {
                          dense::gemm_nt_minus(gm, gn, w, a.data(), gm,
                                               b.data(), gn, c.data(), gm);
                        }),
            src);
    out.add("dense.gemm_flops_per_byte",
            f / (8.0 * (1.0 * gm * w + 1.0 * gn * w + 2.0 * gm * gn)), src);
    out.add("dense.gemm_m", gm, src);
    out.add("dense.gemm_n", gn, src);
    out.add("dense.gemm_k", w, src);
  }
}

}  // namespace perfbench
