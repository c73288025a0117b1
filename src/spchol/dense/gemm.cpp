#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "spchol/dense/isa.hpp"
#include "spchol/dense/kernels.hpp"

#if SPCHOL_DENSE_X86
#include <immintrin.h>
#endif

namespace spchol::dense {

namespace {

using std::ptrdiff_t;

// ---- register tiles --------------------------------------------------------
//
// T::tile(kc, ap, bp, c, ldc): C(0:kMR, 0:kNR) −= Ap·Bpᵀ over kc packed
// steps, the accumulator starting from zero (the contract in kernels.hpp).
// Ap is a kMR-row sliver and Bp a kNR-column sliver, both 64-byte aligned.

struct PortableTile {
  static constexpr index_t kMR = 4, kNR = 4;
  static void tile(index_t kc, const double* ap, const double* bp, double* c,
                   index_t ldc) {
    double acc[kNR][kMR] = {};
    for (index_t p = 0; p < kc; ++p, ap += kMR, bp += kNR) {
      for (index_t j = 0; j < kNR; ++j) {
        for (index_t i = 0; i < kMR; ++i) {
          acc[j][i] = std::fma(ap[i], bp[j], acc[j][i]);
        }
      }
    }
    for (index_t j = 0; j < kNR; ++j) {
      for (index_t i = 0; i < kMR; ++i) c[i + j * ldc] -= acc[j][i];
    }
  }
};

#if SPCHOL_DENSE_X86

// 12×4: three ymm rows × four broadcast columns = 12 accumulators.
struct Avx2Tile {
  static constexpr index_t kMR = 12, kNR = 4;
  SPCHOL_TARGET_AVX2 static void tile(index_t kc, const double* ap,
                                      const double* bp, double* c,
                                      index_t ldc) {
    __m256d acc[kNR][3];
    for (auto& col : acc) {
      for (auto& v : col) v = _mm256_setzero_pd();
    }
    for (index_t p = 0; p < kc; ++p, ap += kMR, bp += kNR) {
      const __m256d a0 = _mm256_load_pd(ap);
      const __m256d a1 = _mm256_load_pd(ap + 4);
      const __m256d a2 = _mm256_load_pd(ap + 8);
#pragma GCC unroll 4
      for (index_t j = 0; j < kNR; ++j) {
        const __m256d bj = _mm256_broadcast_sd(bp + j);
        acc[j][0] = _mm256_fmadd_pd(a0, bj, acc[j][0]);
        acc[j][1] = _mm256_fmadd_pd(a1, bj, acc[j][1]);
        acc[j][2] = _mm256_fmadd_pd(a2, bj, acc[j][2]);
      }
    }
    for (index_t j = 0; j < kNR; ++j) {
      double* cj = c + static_cast<ptrdiff_t>(j) * ldc;
      for (index_t v = 0; v < 3; ++v) {
        _mm256_storeu_pd(cj + 4 * v, _mm256_sub_pd(_mm256_loadu_pd(cj + 4 * v),
                                                   acc[j][v]));
      }
    }
  }
};

// 16×8: two zmm rows × eight broadcast columns = 16 accumulators.
struct Avx512Tile {
  static constexpr index_t kMR = 16, kNR = 8;
  SPCHOL_TARGET_AVX512 static void tile(index_t kc, const double* ap,
                                        const double* bp, double* c,
                                        index_t ldc) {
    __m512d acc[kNR][2];
    for (auto& col : acc) {
      for (auto& v : col) v = _mm512_setzero_pd();
    }
    for (index_t p = 0; p < kc; ++p, ap += kMR, bp += kNR) {
      const __m512d a0 = _mm512_load_pd(ap);
      const __m512d a1 = _mm512_load_pd(ap + 8);
#pragma GCC unroll 8
      for (index_t j = 0; j < kNR; ++j) {
        const __m512d bj = _mm512_set1_pd(bp[j]);
        acc[j][0] = _mm512_fmadd_pd(a0, bj, acc[j][0]);
        acc[j][1] = _mm512_fmadd_pd(a1, bj, acc[j][1]);
      }
    }
    for (index_t j = 0; j < kNR; ++j) {
      double* cj = c + static_cast<ptrdiff_t>(j) * ldc;
      _mm512_storeu_pd(cj, _mm512_sub_pd(_mm512_loadu_pd(cj), acc[j][0]));
      _mm512_storeu_pd(cj + 8,
                       _mm512_sub_pd(_mm512_loadu_pd(cj + 8), acc[j][1]));
    }
  }
};

#endif  // SPCHOL_DENSE_X86

// ---- packing and the blocked loop nest -------------------------------------

struct FreeDeleter {
  void operator()(double* p) const noexcept { std::free(p); }
};
using AlignedBuffer = std::unique_ptr<double[], FreeDeleter>;

AlignedBuffer aligned_buffer(std::size_t count) {
  void* p = std::aligned_alloc(64, count * sizeof(double));
  if (p == nullptr) throw std::bad_alloc();
  return AlignedBuffer(static_cast<double*>(p));
}

/// Per-thread packing workspace, allocated on the thread's first GEMM/SYRK:
/// (kGemmMC + kGemmNC)·kGemmKC doubles = 448 KiB whatever the matrix.
struct PackWorkspace {
  AlignedBuffer a = aligned_buffer(static_cast<std::size_t>(kGemmMC) * kGemmKC);
  AlignedBuffer b = aligned_buffer(static_cast<std::size_t>(kGemmKC) * kGemmNC);
};

PackWorkspace& pack_workspace() {
  thread_local PackWorkspace ws;
  return ws;
}

/// Packs the rows × kc column-major block `src` into R-row slivers:
/// out[s·R·kc + p·R + r] = src(s·R + r, p), zero-padded past `rows`.
template <index_t R>
void pack(index_t rows, index_t kc, const double* src, index_t ld,
          double* out) {
  for (index_t r0 = 0; r0 < rows; r0 += R) {
    const index_t rw = std::min(R, rows - r0);
    for (index_t p = 0; p < kc; ++p, out += R) {
      const double* col = src + r0 + static_cast<ptrdiff_t>(p) * ld;
      index_t r = 0;
      for (; r < rw; ++r) out[r] = col[r];
      for (; r < R; ++r) out[r] = 0.0;
    }
  }
}

/// C(0:mc, 0:nc) −= Ap·Bpᵀ over one packed kc-deep panel. With `lower`,
/// only elements with i + shift ≥ j are written (shift = global row minus
/// global column of C(0,0)), and tiles strictly above that line are skipped.
/// Edge and diagonal tiles run on a copy so the tile kernel stays full-size.
template <class T>
void macro_kernel(index_t mc, index_t nc, index_t kc, const double* ap,
                  const double* bp, double* c, index_t ldc, bool lower,
                  index_t shift) {
  constexpr index_t kMR = T::kMR, kNR = T::kNR;
  alignas(64) double tmp[kMR * kNR] = {};
  for (index_t jr = 0; jr < nc; jr += kNR) {
    const index_t nr = std::min(kNR, nc - jr);
    const double* bs = bp + static_cast<ptrdiff_t>(jr) * kc;
    for (index_t ir = 0; ir < mc; ir += kMR) {
      const index_t mr = std::min(kMR, mc - ir);
      const index_t top = ir + shift;
      if (lower && top + mr - 1 < jr) continue;
      const double* as = ap + static_cast<ptrdiff_t>(ir) * kc;
      double* ct = c + ir + static_cast<ptrdiff_t>(jr) * ldc;
      if (mr == kMR && nr == kNR && (!lower || top >= jr + kNR - 1)) {
        T::tile(kc, as, bs, ct, ldc);
        continue;
      }
      // Only the elements this call owns are read and written back; the
      // rest of tmp holds determinate leftovers that are never stored.
      const auto first_row = [&](index_t j) {
        return lower ? std::max<index_t>(0, jr + j - top) : 0;
      };
      for (index_t j = 0; j < nr; ++j) {
        for (index_t i = first_row(j); i < mr; ++i) {
          tmp[i + j * kMR] = ct[i + j * ldc];
        }
      }
      T::tile(kc, as, bs, tmp, kMR);
      for (index_t j = 0; j < nr; ++j) {
        for (index_t i = first_row(j); i < mr; ++i) {
          ct[i + j * ldc] = tmp[i + j * kMR];
        }
      }
    }
  }
}

/// C −= A·Bᵀ (m×n), or with `lower` (then m == n and B == A) only the lower
/// triangle of C. Loop order jc (kGemmNC) → pc (kGemmKC) → ic (kGemmMC):
/// the B panel is packed once per (jc, pc) and stays L2-hot across ic.
template <class T>
void packed_update(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc, bool lower) {
  static_assert(kGemmMC % T::kMR == 0 && kGemmNC % T::kNR == 0,
                "a block must hold whole slivers of the tile");
  if (m <= 0 || n <= 0 || k <= 0) return;
  PackWorkspace& ws = pack_workspace();
  for (index_t jc = 0; jc < n; jc += kGemmNC) {
    const index_t nc = std::min(kGemmNC, n - jc);
    for (index_t pc = 0; pc < k; pc += kGemmKC) {
      const index_t kc = std::min(kGemmKC, k - pc);
      pack<T::kNR>(nc, kc, b + jc + static_cast<ptrdiff_t>(pc) * ldb, ldb,
                   ws.b.get());
      // Rows above jc lie strictly above the diagonal of this column block.
      for (index_t ic = lower ? jc : 0; ic < m; ic += kGemmMC) {
        const index_t mc = std::min(kGemmMC, m - ic);
        pack<T::kMR>(mc, kc, a + ic + static_cast<ptrdiff_t>(pc) * lda, lda,
                     ws.a.get());
        macro_kernel<T>(mc, nc, kc, ws.a.get(), ws.b.get(),
                        c + ic + static_cast<ptrdiff_t>(jc) * ldc, ldc, lower,
                        ic - jc);
      }
    }
  }
}

void update(KernelVariant v, index_t m, index_t n, index_t k, const double* a,
            index_t lda, const double* b, index_t ldb, double* c, index_t ldc,
            bool lower) {
  switch (v) {
#if SPCHOL_DENSE_X86
    case KernelVariant::kAvx512:
      return packed_update<Avx512Tile>(m, n, k, a, lda, b, ldb, c, ldc, lower);
    case KernelVariant::kAvx2:
      return packed_update<Avx2Tile>(m, n, k, a, lda, b, ldb, c, ldc, lower);
#endif
    default:
      return packed_update<PortableTile>(m, n, k, a, lda, b, ldb, c, ldc,
                                         lower);
  }
}

KernelVariant detect_kernel_variant() {
  for (KernelVariant v : {KernelVariant::kAvx512, KernelVariant::kAvx2}) {
    if (kernel_variant_supported(v)) return v;
  }
  return KernelVariant::kPortable;
}

}  // namespace

bool kernel_variant_supported(KernelVariant v) {
  switch (v) {
    case KernelVariant::kPortable:
      return true;
#if SPCHOL_DENSE_X86
    case KernelVariant::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case KernelVariant::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
    default:
      return false;
  }
}

KernelVariant kernel_variant() {
  static const KernelVariant v = detect_kernel_variant();
  return v;
}

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kAvx512:
      return "avx512 (16x8 tile)";
    case KernelVariant::kAvx2:
      return "avx2+fma (12x4 tile)";
    case KernelVariant::kPortable:
      break;
  }
  return "portable (4x4 tile)";
}

void gemm_nt_minus_variant(KernelVariant v, index_t m, index_t n, index_t k,
                           const double* a, index_t lda, const double* b,
                           index_t ldb, double* c, index_t ldc) {
  SPCHOL_CHECK(kernel_variant_supported(v), "kernel variant not supported");
  update(v, m, n, k, a, lda, b, ldb, c, ldc, /*lower=*/false);
}

void syrk_lower_nt_variant(KernelVariant v, index_t n, index_t k,
                           const double* a, index_t lda, double* c,
                           index_t ldc) {
  SPCHOL_CHECK(kernel_variant_supported(v), "kernel variant not supported");
  update(v, n, n, k, a, lda, a, lda, c, ldc, /*lower=*/true);
}

void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc) {
  update(kernel_variant(), m, n, k, a, lda, b, ldb, c, ldc, /*lower=*/false);
}

void gemm_nt_minus_parallel(ThreadPool& pool, std::size_t threads, index_t m,
                            index_t n, index_t k, const double* a,
                            index_t lda, const double* b, index_t ldb,
                            double* c, index_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (threads <= 1) {
    gemm_nt_minus(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // Partition rows of C: each thread owns a contiguous row band, so every
  // output element has one writer and the k-accumulation order is fixed.
  parallel_for(
      pool, 0, m, threads,
      [&](index_t lo, index_t hi) {
        gemm_nt_minus(hi - lo, n, k, a + lo, lda, b, ldb, c + lo, ldc);
      },
      /*grain=*/32);
}

void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc) {
  update(kernel_variant(), n, n, k, a, lda, a, lda, c, ldc, /*lower=*/true);
}

void syrk_lower_nt_parallel(ThreadPool& pool, std::size_t threads, index_t n,
                            index_t k, const double* a, index_t lda,
                            double* c, index_t ldc) {
  if (n <= 0 || k <= 0) return;
  if (threads <= 1 || n < 64) {
    syrk_lower_nt(n, k, a, lda, c, ldc);
    return;
  }
  // Partition columns with balanced trapezoid areas: column j costs
  // (n - j)·k, so chunk boundaries equalize sum(n - j).
  const double total = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n + 1);
  const std::size_t nchunks = threads;
  std::vector<index_t> bounds(nchunks + 1, n);
  bounds[0] = 0;
  index_t j = 0;
  double acc = 0.0;
  for (std::size_t cidx = 1; cidx < nchunks; ++cidx) {
    const double target =
        total * static_cast<double>(cidx) / static_cast<double>(nchunks);
    while (j < n && acc < target) {
      acc += static_cast<double>(n - j);
      ++j;
    }
    bounds[cidx] = j;
  }
  pool.run(nchunks, [&](std::size_t cidx) {
    const index_t lo = bounds[cidx], hi = bounds[cidx + 1];
    if (lo >= hi) return;
    // This chunk owns C(lo:n, lo:hi): the diagonal trapezoid via the serial
    // syrk on the sub-triangle plus a gemm for rows below hi.
    syrk_lower_nt(hi - lo, k, a + lo, lda, c + lo + lo * ldc, ldc);
    const index_t below = n - hi;
    if (below > 0) {
      gemm_nt_minus(below, hi - lo, k, a + hi, lda, a + lo, lda,
                    c + hi + lo * ldc, ldc);
    }
  });
}

}  // namespace spchol::dense
