// Shared implementation context for the numeric factorization paths.
// Not part of the public API.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "spchol/core/factor.hpp"
#include "spchol/dense/kernels.hpp"
#include "spchol/gpu/blas.hpp"
#include "spchol/gpu/device_arena.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/support/thread_pool.hpp"
#include "spchol/support/worker_crew.hpp"
#include "spchol/symbolic/etree.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "spchol/symbolic/solve_plan.hpp"

namespace spchol::detail {

/// True when supernode s runs its BLAS on the device under `opts` — the
/// hybrid threshold split. Shared by the drivers (FactorContext::on_gpu)
/// and the plan builder (build_planned_graph), so a cached plan and a
/// per-call plan can never disagree about device placement.
inline bool supernode_on_gpu(const SymbolicFactor& symb,
                             const FactorOptions& opts, index_t s) {
  if (opts.exec == Execution::kCpuSerial ||
      opts.exec == Execution::kCpuParallel) {
    return false;
  }
  if (opts.exec == Execution::kGpuOnly) return true;
  const offset_t threshold = opts.method == Method::kRL
                                 ? opts.gpu_threshold_rl
                                 : opts.gpu_threshold_rlb;
  return symb.sn_entries(s) >= threshold;
}

/// True when supernode s's SOLVE runs on the device under `opts` — the
/// solve path's threshold split. Shared by the executor (core/solve.cpp)
/// and build_planned_solve, so a cached solve plan and a per-call plan
/// can never disagree about device placement.
inline bool solve_supernode_on_gpu(const SymbolicFactor& symb,
                                   const SolveOptions& opts, index_t s) {
  if (opts.exec == Execution::kCpuSerial ||
      opts.exec == Execution::kCpuParallel) {
    return false;
  }
  if (opts.exec == Execution::kGpuOnly) return true;
  return symb.sn_entries(s) >= opts.gpu_threshold;
}

/// Everything a scheduled driver derives from (symbolic, options, worker
/// count) alone — the read-only, reusable half of a scheduled
/// factorization. SolverService caches one per (pattern, plan options)
/// fingerprint so repeat same-pattern requests skip the plan build
/// entirely; the per-call path builds a transient one through the SAME
/// function, so both paths execute the same graph shape and stay bitwise
/// identical.
struct PlannedGraph {
  ExecutionPlan plan;
  std::vector<index_t> queue_of;  ///< ready-queue partition per supernode
  std::size_t partitions = 1;  ///< partition count queue_of was built for
  /// Per-supernode device assignment (assign_devices); empty when the
  /// plan was built for one device. The executors read it to price
  /// cross-device separator assembly (plan nodes carry their own copy
  /// of the routing ordinal).
  std::vector<index_t> device_of;
  index_t devices = 1;  ///< device count the plan was built for
};

/// The solve-path counterpart of PlannedGraph: one SolvePlan (forward +
/// backward DAGs) plus the partition assignment it was built with.
/// Immutable after construction; shared by any number of concurrent
/// solves against any factor of the same pattern.
struct PlannedSolve {
  SolvePlan plan;
  std::vector<index_t> queue_of;  ///< ready-queue partition per supernode
  std::size_t partitions = 1;  ///< partition count queue_of was built for
  index_t devices = 1;  ///< device count the plan was built for
};

/// Builds the scheduled-solve graph for `symb` under `opts` with
/// `workers` scheduler workers. Defined in solve.cpp. As with
/// build_planned_graph, the worker count feeds only the ready-queue
/// partitioning — a locality hint, never a correctness input.
PlannedSolve build_planned_solve(const SymbolicFactor& symb,
                                 const SolveOptions& opts,
                                 std::size_t workers);

/// Builds the scheduled-driver graph for `symb` under `opts` with
/// `workers` scheduler workers. Defined in factor.cpp. The plan shape
/// depends on the worker count only through the ready-queue partition
/// count — a locality hint, never a correctness input.
PlannedGraph build_planned_graph(const SymbolicFactor& symb,
                                 const FactorOptions& opts,
                                 std::size_t workers);

/// Long-lived execution substrate injected by SolverRuntime/SolverService
/// into one factorization call. All pointers are optional and non-owning;
/// a nullptr field falls back to the per-call construction it replaces,
/// so a default ExecutionResources reproduces the standalone path
/// exactly. Everything injected here affects scheduling, resource reuse,
/// and the modeled timeline ONLY — the device executes numerics eagerly
/// and the task graph fixes every accumulation order, so factors stay
/// bitwise identical with or without injection.
struct ExecutionResources {
  /// Persistent worker complement: the scheduled drivers and staged
  /// pipelines drain on it (TaskScheduler::run_on) instead of spawning
  /// dedicated threads per call.
  WorkerCrew* crew = nullptr;
  /// Shared long-lived device; must be &arena->device() (the arena
  /// registry's device 0) when arena is also set (checked in factorize).
  /// Multi-device runs reach the other devices through the arena's
  /// DeviceRegistry; a bare injected device caps the run at one device.
  gpu::Device* device = nullptr;
  /// Keyed slot-pool cache decoupling GPU buffer/stream lifetime from
  /// this one call.
  gpu::DeviceArena* arena = nullptr;
  /// Reusable per-session scheduler (reset() and rebuilt each run).
  TaskScheduler* sched = nullptr;
  /// Cached plan; must have been built for this call's (symb, opts,
  /// workers) via build_planned_graph.
  const PlannedGraph* planned = nullptr;
  /// Cached SOLVE plan; must have been built for this call's (symb,
  /// SolveOptions, workers) via build_planned_solve. Solve calls ignore
  /// `planned` and `sched` (each scheduled solve drains its own
  /// scheduler so concurrent solves never share mutable state).
  const PlannedSolve* planned_solve = nullptr;
  /// Arena cache key fingerprinting the pattern + plan-relevant options;
  /// the drivers mix in a per-method tag before pool lookup.
  std::uint64_t pool_key = 0;
};

/// Plan-driven triangular solve executor (solve.cpp): permutes b in,
/// runs the serial sweeps or the scheduled SolvePlan DAGs per
/// `opts`/`res`, permutes x out. `b`/`x` are n × nrhs column-major in
/// the ORIGINAL ordering; aliasing allowed. Bitwise identical to the
/// serial sweeps for every worker/stream/panel configuration.
void solve_with_resources(const SymbolicFactor& symb,
                          std::span<const double> values,
                          std::span<const double> b, std::span<double> x,
                          index_t nrhs, const SolveOptions& opts,
                          const ExecutionResources* res, SolveStats* stats);

/// Everything the RL/RLB kernels need: symbolic data, factor values,
/// the simulated device (whose host clock is the modeled CPU timeline),
/// and accumulators for the stats breakdown.
///
/// Threading model. In kCpuSerial every kernel runs on one thread. In the
/// scheduled modes (kCpuParallel, and the CPU side of kGpuHybrid, with
/// cpu_workers > 1) supernode tasks execute concurrently on dedicated
/// scheduler workers; each task's dense kernels additionally fork onto
/// ThreadPool::global(), with a width that shrinks as more tasks are in
/// flight (near the etree root one big panel gets the whole machine; deep
/// in the tree each task stays serial). The dense kernels partition their
/// OUTPUT with a fixed accumulation order, so the width never changes the
/// bits — determinism only depends on the scatter ordering, which the
/// task graph serializes per target supernode in ascending source order.
struct FactorContext {
  const SymbolicFactor& symb;
  std::vector<double>& values;
  const FactorOptions& opts;
  const ExecutionResources* res;  ///< injected services; may be nullptr
  /// Per-call device registry, engaged only when no shared registry or
  /// device was injected; sized from opts.gpu_devices.
  std::optional<gpu::DeviceRegistry> own_reg;
  /// Registry GPU work shards across: the injected arena's when one was
  /// given, own_reg otherwise. Null only when a bare device (no arena)
  /// was injected — that configuration is pinned to one device.
  gpu::DeviceRegistry* reg;
  /// Device 0 — the primary device. It carries the modeled host clock
  /// (the deferred CPU/assembly floor folds here exactly once), so every
  /// single-device code path and stat is unchanged by the registry.
  gpu::Device& dev;
  ThreadPool& pool;            ///< backend for nested parallel kernels
  std::size_t blas_capacity;   ///< pool workers + calling thread
  std::size_t workers;         ///< resolved scheduler worker count
  bool scheduled;              ///< task scheduler drives this run
  std::size_t ndev;            ///< effective device count for this run

  double cpu_blas_seconds = 0.0;
  double assembly_seconds = 0.0;
  std::size_t num_cpu_blas_calls = 0;
  index_t supernodes_on_gpu = 0;
  index_t gpu_stream_pairs = 0;  ///< stream/buffer slots the driver used
  index_t batches_formed = 0;        ///< BATCH plan nodes executed
  index_t supernodes_batched = 0;    ///< supernodes coalesced into them
  std::size_t fused_device_launches = 0;
  /// Cross-device separator assembly, modeled: when a contributor's
  /// update matrix was produced on one device and its target panel lives
  /// on another, the scatter pays an explicit D2H→H2D hop (the factor
  /// panels themselves are assembled on the host in the fixed per-target
  /// order, so the BITS never depend on the hop — only the timeline).
  double cross_device_assembly_seconds = 0.0;
  std::size_t cross_device_transfer_bytes = 0;
  std::size_t num_cross_device_transfers = 0;
  /// Supernodes executed through the cooperative all-device pipeline.
  index_t coop_supernodes = 0;
  // --- fan-both plan-shape counters --------------------------------------
  index_t aggregation_buffers = 0;  ///< AGGREGATE groups executed
  index_t apply_nodes = 0;          ///< APPLY replays executed
  std::size_t aggregation_bytes_peak = 0;  ///< peak live slab bytes
  /// Modeled task-graph makespans at 1 worker and at ctx.workers
  /// (TaskScheduler::modeled_makespan after the drain); zero on the
  /// sequential drivers.
  double modeled_task_serial_seconds = 0.0;
  double modeled_task_parallel_seconds = 0.0;
  SchedulerStats sched_stats{};
  /// Device stats/timeline at construction. On a shared long-lived
  /// device the accumulators reflect every run so far; factorize()
  /// subtracts these baselines so one call's FactorStats report only its
  /// own contribution (the per-call device makes them zero, so the
  /// standalone numbers are unchanged).
  gpu::DeviceStats dev_stats0{};
  double makespan0 = 0.0;
  /// Per-effective-device baselines (index = device ordinal < ndev);
  /// entry 0 duplicates dev_stats0/makespan0.
  std::vector<gpu::DeviceStats> dev_stats0_of;
  std::vector<double> makespan0_of;
  /// GPU supernodes routed to each device ordinal (stats breakdown).
  std::vector<index_t> gpu_supernodes_of;

  /// The self-owned registry's device config: the per-call config with
  /// the topology table installed into its PerfModel, so p2p hops price
  /// against the per-pair links. Injected registries (arena/device) keep
  /// their own model — RuntimeOptions::topology configures those.
  static gpu::DeviceConfig own_device_config(const FactorOptions& o) {
    gpu::DeviceConfig cfg = o.device;
    cfg.model.links = o.topology;
    return cfg;
  }

  FactorContext(const SymbolicFactor& s, std::vector<double>& v,
                const FactorOptions& o,
                const ExecutionResources* r = nullptr)
      : symb(s),
        values(v),
        opts(o),
        res(r),
        own_reg(),
        reg(r != nullptr && r->arena != nullptr
                ? &r->arena->registry()
                : (r != nullptr && r->device != nullptr
                       ? nullptr
                       : &own_reg.emplace(
                             own_device_config(o),
                             static_cast<std::size_t>(
                                 o.gpu_devices > 0 ? o.gpu_devices : 1)))),
        dev(r != nullptr && r->device != nullptr ? *r->device
                                                 : reg->device(0)),
        pool(ThreadPool::global()),
        blas_capacity(ThreadPool::global().concurrency()),
        workers(resolve_worker_count(o.cpu_workers)),
        scheduled((o.exec == Execution::kCpuParallel ||
                   o.exec == Execution::kGpuHybrid) &&
                  workers > 1),
        ndev(reg == nullptr
                 ? std::size_t{1}
                 : std::min(reg->size(),
                            static_cast<std::size_t>(
                                o.gpu_devices > 0 ? o.gpu_devices : 1))) {
    dev_stats0 = dev.stats();
    makespan0 = dev.makespan();
    dev_stats0_of.reserve(ndev);
    makespan0_of.reserve(ndev);
    for (std::size_t d = 0; d < ndev; ++d) {
      gpu::Device& dd = device(static_cast<index_t>(d));
      dev_stats0_of.push_back(dd.stats());
      makespan0_of.push_back(dd.makespan());
    }
    gpu_supernodes_of.assign(ndev, 0);
    link_accum_.assign(ndev * ndev, LinkAccum{});
  }

  /// Device a plan-node ordinal resolves to. Plans may have been built
  /// for more devices than this run can reach (fewer registry devices,
  /// or a bare injected device); the modulo fold keeps routing total.
  /// Negative ordinals (cooperative plan nodes) fold to device 0 — the
  /// owner of a cooperative supernode's buffers. Numerics never depend
  /// on the fold — assembly order is fixed by the plan, so a degraded
  /// run stays bitwise identical.
  gpu::Device& device(index_t ordinal) {
    if (reg == nullptr || ndev <= 1 || ordinal < 0) return dev;
    return reg->device(static_cast<std::size_t>(ordinal) % ndev);
  }
  /// The effective ordinal `device(ordinal)` resolved to.
  index_t device_ordinal(index_t ordinal) const {
    if (reg == nullptr || ndev <= 1 || ordinal < 0) return 0;
    return static_cast<index_t>(static_cast<std::size_t>(ordinal) % ndev);
  }

  double* sn_values(index_t s) {
    return values.data() + symb.sn_values_offset(s);
  }

  /// True when supernode s runs its BLAS on the device.
  bool on_gpu(index_t s) const { return supernode_on_gpu(symb, opts, s); }

  /// Stream/buffer slots the scheduled hybrid drivers may keep in flight.
  /// validate_options rejects gpu_streams < 1 before any driver runs;
  /// the guard below is purely defensive.
  std::size_t gpu_slot_budget() const {
    return opts.gpu_streams > 0 ? static_cast<std::size_t>(opts.gpu_streams)
                                : 1;
  }

  /// Real fork width for one dense kernel / assembly loop.
  std::size_t kernel_threads() const {
    if (opts.exec == Execution::kCpuSerial) return 1;
    if (!scheduled) return blas_capacity;
    const std::size_t act =
        std::max<std::size_t>(1, active_tasks_.load(std::memory_order_relaxed));
    return std::max<std::size_t>(1, blas_capacity / act);
  }

  /// RAII marker for a task in flight (feeds the dynamic kernel width).
  class TaskScope {
   public:
    explicit TaskScope(FactorContext& ctx) : ctx_(ctx) {
      ctx_.active_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
    ~TaskScope() {
      ctx_.active_tasks_.fetch_sub(1, std::memory_order_relaxed);
    }
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    FactorContext& ctx_;
  };

  /// Accumulator of the modeled CPU work issued inside one BATCH task.
  struct BatchAccum {
    double flops = 0.0;          // combined flops of every member kernel
    std::size_t calls = 0;       // member kernels issued
    double entries = 0.0;        // factor entries scatter-assembled
  };

  /// RAII scope of one fused CPU batch task: while installed (on this
  /// thread), account_cpu/account_assembly GATHER instead of charging per
  /// call, and the close charges the whole batch as one fused batched
  /// call group plus one fused assembly region
  /// (PerfModel::cpu_batched_kernel_seconds_best) — the modeled
  /// amortization of per-call and per-fork overheads that batching
  /// exists to buy. The REAL kernels still run one member at a time in
  /// ascending order, so the numeric bits never depend on batching.
  class BatchScope {
   public:
    explicit BatchScope(FactorContext& ctx) : ctx_(ctx) {
      prev_ = tl_batch_;
      tl_batch_ = &acc_;
    }
    ~BatchScope() {
      tl_batch_ = prev_;
      ctx_.charge_batched(acc_);
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    FactorContext& ctx_;
    BatchAccum acc_;
    BatchAccum* prev_;
  };

  // --- CPU BLAS: execute for real, advance the modeled host clock --------
  //
  // Sequential drivers advance the device host clock inline (exactly the
  // pre-scheduler behaviour). Scheduled runs must not touch the device
  // from concurrent tasks, so they accumulate under a mutex and
  // flush_deferred() folds the total into the host clock once the graph
  // has drained — the sum is order-independent, and in kGpuHybrid this is
  // precisely the overlap win: CPU supernode work no longer delays the
  // issue of device operations.
  void account_cpu(double flops) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->flops += flops;
      tl_batch_->calls++;
      return;
    }
    const double t = opts.exec == Execution::kCpuSerial
                         ? dev.model().cpu_kernel_seconds(flops, 1)
                         : dev.model().cpu_kernel_seconds_best(flops);
    if (scheduled) {
      std::lock_guard<std::mutex> lk(account_mu_);
      deferred_host_seconds_ += t;
      cpu_blas_seconds += t;
      num_cpu_blas_calls++;
    } else {
      dev.advance_host(t);
      cpu_blas_seconds += t;
      num_cpu_blas_calls++;
    }
  }
  void cpu_potrf(index_t n, double* a, index_t lda) {
    dense::potrf_lower_parallel(pool, kernel_threads(), n, a, lda);
    account_cpu(dense::flops_potrf(n));
  }
  void cpu_trsm(index_t m, index_t n, const double* l, index_t ldl, double* b,
                index_t ldb) {
    dense::trsm_right_lower_trans_parallel(pool, kernel_threads(), m, n, l,
                                           ldl, b, ldb);
    account_cpu(dense::flops_trsm(m, n));
  }
  void cpu_syrk(index_t n, index_t k, const double* a, index_t lda, double* c,
                index_t ldc) {
    dense::syrk_lower_nt_parallel(pool, kernel_threads(), n, k, a, lda, c,
                                  ldc);
    account_cpu(dense::flops_syrk(n, k));
  }
  void cpu_gemm(index_t m, index_t n, index_t k, const double* a, index_t lda,
                const double* b, index_t ldb, double* c, index_t ldc) {
    dense::gemm_nt_minus_parallel(pool, kernel_threads(), m, n, k, a, lda, b,
                                  ldb, c, ldc);
    account_cpu(dense::flops_gemm(m, n, k));
  }

  /// Models one parallel-assembly region of `entries` scatter-adds.
  void account_assembly(double entries) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->entries += entries;
      return;
    }
    const double t = dev.model().assembly_seconds(
        entries, opts.assembly_threads);
    if (scheduled) {
      std::lock_guard<std::mutex> lk(account_mu_);
      deferred_host_seconds_ += t;
      assembly_seconds += t;
    } else {
      dev.advance_host(t);
      assembly_seconds += t;
    }
  }

  void count_gpu_supernode(index_t device_ord = 0) {
    std::lock_guard<std::mutex> lk(account_mu_);
    supernodes_on_gpu++;
    const std::size_t d = device_ord < 0
                              ? 0
                              : static_cast<std::size_t>(device_ord) % ndev;
    if (d < gpu_supernodes_of.size()) gpu_supernodes_of[d]++;
  }

  /// One supernode executed through the cooperative (all-device) pipeline.
  void count_coop_supernode() {
    std::lock_guard<std::mutex> lk(account_mu_);
    coop_supernodes++;
  }

  /// Models the hop of one cross-device scatter: `entries` update-matrix
  /// entries produced on device ordinal `src`, assembled into a target
  /// panel owned by ordinal `dst`. Without a link topology this is the
  /// legacy D2H→H2D price (ship to host, re-stage — byte-identical to
  /// pre-topology runs); with PerfModel::links set the hop rides the
  /// actual src→dst link instead, so cross-island hops cost their real
  /// bandwidth. Order-independent deferred sum folded into the host
  /// floor by flush_deferred() — the measured price of sharding the
  /// separator tree. Only the scheduled drivers route across devices, so
  /// the deferred fold owns the clock. Per-(src,dst) totals accumulate
  /// for FactorStats::per_link.
  void account_cross_device(index_t src, index_t dst, double entries) {
    const double bytes = entries * static_cast<double>(sizeof(double));
    const auto& m = dev.model();
    const double t =
        m.links.empty()
            ? m.d2h_seconds(bytes) + m.h2d_seconds(bytes)
            : m.p2p_seconds(static_cast<int>(src), static_cast<int>(dst),
                            bytes);
    std::lock_guard<std::mutex> lk(account_mu_);
    deferred_host_seconds_ += t;
    cross_device_assembly_seconds += t;
    cross_device_transfer_bytes += static_cast<std::size_t>(bytes);
    num_cross_device_transfers++;
    const std::size_t a = src < 0 ? 0 : static_cast<std::size_t>(src) % ndev;
    const std::size_t b = dst < 0 ? 0 : static_cast<std::size_t>(dst) % ndev;
    LinkAccum& acc = link_accum_[a * ndev + b];
    acc.bytes += static_cast<std::size_t>(bytes);
    acc.seconds += t;
    acc.transfers++;
  }

  /// Snapshot of the per-(src,dst) cross-device traffic, one row per
  /// pair that carried any, sorted by (src, dst) — FactorStats::per_link.
  std::vector<LinkTransfer> per_link_transfers() {
    std::lock_guard<std::mutex> lk(account_mu_);
    std::vector<LinkTransfer> out;
    for (std::size_t a = 0; a < ndev; ++a) {
      for (std::size_t b = 0; b < ndev; ++b) {
        const LinkAccum& acc = link_accum_[a * ndev + b];
        if (acc.transfers == 0) continue;
        LinkTransfer lt;
        lt.src = static_cast<int>(a);
        lt.dst = static_cast<int>(b);
        lt.bytes = acc.bytes;
        lt.seconds = acc.seconds;
        lt.transfers = acc.transfers;
        out.push_back(lt);
      }
    }
    return out;
  }

  void count_fused_launch() {
    std::lock_guard<std::mutex> lk(account_mu_);
    fused_device_launches++;
  }

  /// Models one fan-both AGGREGATE gather of `entries` (offset, value)
  /// pairs. Deferred like the other scheduled CPU work; attributed to
  /// assembly_seconds (it is the parallelizable half of assembly).
  void account_aggregation(double entries) {
    const double t = dev.model().aggregation_seconds(
        entries, opts.assembly_threads);
    std::lock_guard<std::mutex> lk(account_mu_);
    deferred_host_seconds_ += t;
    assembly_seconds += t;
    aggregation_buffers++;
  }

  /// Tracks live aggregation-slab memory for the peak counter.
  void note_agg_alloc(std::size_t bytes) {
    std::lock_guard<std::mutex> lk(account_mu_);
    agg_bytes_live_ += bytes;
    aggregation_bytes_peak = std::max(aggregation_bytes_peak,
                                      agg_bytes_live_);
  }
  void note_agg_free(std::size_t bytes) {
    std::lock_guard<std::mutex> lk(account_mu_);
    agg_bytes_live_ -= bytes;
  }

  void count_apply() {
    std::lock_guard<std::mutex> lk(account_mu_);
    apply_nodes++;
  }

  /// Folds the modeled time of scheduler-executed CPU work into the
  /// device host clock. Call after the task graph has drained.
  void flush_deferred() {
    dev.advance_host(deferred_host_seconds_);
    deferred_host_seconds_ = 0.0;
  }

 private:
  /// Charges one closed batch: the gathered member kernels as a single
  /// fused batched call group, the gathered scatter-adds as a single
  /// fused assembly region. Both sums are order-independent, so the
  /// modeled time never depends on worker interleaving. Only the
  /// scheduled drivers run batches, so the deferred fold owns the clock.
  void charge_batched(const BatchAccum& acc) {
    double blas = 0.0;
    if (acc.calls > 0) {
      blas = dev.model().cpu_batched_kernel_seconds_best(acc.flops,
                                                         acc.calls);
    }
    const double asm_t =
        dev.model().assembly_seconds(acc.entries, opts.assembly_threads);
    std::lock_guard<std::mutex> lk(account_mu_);
    deferred_host_seconds_ += blas + asm_t;
    cpu_blas_seconds += blas;
    assembly_seconds += asm_t;
    num_cpu_blas_calls += acc.calls;
  }

  // Constant-initialized inline definition: every translation unit reads
  // the slot directly instead of through a TLS init wrapper, which UBSan
  // misreports as a null-pointer load.
  static inline thread_local BatchAccum* tl_batch_ = nullptr;

  /// One (src,dst) pair's running cross-device traffic (ndev×ndev,
  /// row-major; guarded by account_mu_).
  struct LinkAccum {
    std::size_t bytes = 0;
    double seconds = 0.0;
    std::size_t transfers = 0;
  };
  std::vector<LinkAccum> link_accum_;

  std::mutex account_mu_;
  double deferred_host_seconds_ = 0.0;
  std::size_t agg_bytes_live_ = 0;
  std::atomic<std::size_t> active_tasks_{0};
};

/// Factors the supernode panel on the CPU (DPOTRF on the diagonal block,
/// DTRSM on the rectangular part). Throws NotPositiveDefinite with the
/// PERMUTED global column index.
void cpu_factor_panel(FactorContext& ctx, index_t s);

/// RL assembly: adds the host update matrix `u` (below × below,
/// ld = below, holding MINUS the outer product) into the ancestors of s.
/// Returns the number of entries scattered (for the assembly model).
double rl_assemble(FactorContext& ctx, index_t s, const double* u);

/// Target-restricted RL assembly: like rl_assemble, but only the
/// segments of s's update matrix whose target supernode lies in
/// [t_lo, t_hi] are applied (same per-entry order). The fan-both
/// executor uses it for per-target split scatters (t_lo == t_hi) and
/// the in-batch half of a decoupled batch (the batch's own index
/// range). rl_assemble(ctx, s, u) == rl_assemble_range(ctx, s, u, 0,
/// num_supernodes - 1).
double rl_assemble_range(FactorContext& ctx, index_t s, const double* u,
                         index_t t_lo, index_t t_hi);

/// Fan-both gather: writes the (offset-into-target-panel, value) pairs
/// of s's update slice for `target` into offs/vals, in the EXACT
/// per-entry order rl_assemble applies them (columns ascending, rows at
/// or below the diagonal ascending). Returns the number of pairs
/// written; the caller sizes the slab from the plan's agg_entries().
/// Sequentially replaying `panel[offs[k]] += vals[k]` reproduces
/// rl_assemble's writes into `target` bit for bit.
offset_t rl_gather_target(FactorContext& ctx, index_t s, const double* u,
                          index_t target, offset_t* offs, double* vals);

/// RL / RLB / left-looking drivers (rl.cpp, rlb.cpp, left_looking.cpp).
/// Each dispatches to a sequential loop (kCpuSerial, kGpuOnly, or a
/// single worker) or the etree task scheduler (ctx.scheduled).
void run_rl(FactorContext& ctx);
void run_rlb(FactorContext& ctx);
void run_left_looking(FactorContext& ctx);

}  // namespace spchol::detail
