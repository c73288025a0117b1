#include <algorithm>
#include <cmath>
#include <cstddef>

#include "spchol/dense/isa.hpp"
#include "spchol/dense/kernels.hpp"

namespace spchol::dense {

namespace {

constexpr index_t kNB = 64;
// Rows per strip of the in-block solve: a full strip of one column lives in
// registers while the block's earlier columns stream from L1.
constexpr index_t kRS = 32;

/// In-block solve: columns [j0, j0+jw) of B given that all contributions
/// from columns < j0 are already applied. Per element, x = B(i,j);
/// x = fma(−X(i,t), L(j,t), x) for t = j0..j-1 ascending; X(i,j) =
/// x · (1 / L(j,j)). Rows are independent, so any row split gives the same
/// bits; the full-strip and remainder loops follow the same formula.
[[gnu::always_inline]] inline void trsm_inblock_body(
    index_t m, index_t j0, index_t jw, const double* l, index_t ldl,
    double* b, index_t ldb) {
  const auto col = [&](index_t j) {
    return b + static_cast<std::ptrdiff_t>(j) * ldb;
  };
  index_t i0 = 0;
  for (; i0 + kRS <= m; i0 += kRS) {
    for (index_t j = j0; j < j0 + jw; ++j) {
      double x[kRS];
      double* bj = col(j) + i0;
      for (index_t i = 0; i < kRS; ++i) x[i] = bj[i];
      for (index_t t = j0; t < j; ++t) {
        const double ljt = l[j + t * ldl];
        if (ljt == 0.0) continue;
        const double* bt = col(t) + i0;
        for (index_t i = 0; i < kRS; ++i) x[i] = std::fma(-bt[i], ljt, x[i]);
      }
      const double inv = 1.0 / l[j + j * ldl];
      for (index_t i = 0; i < kRS; ++i) bj[i] = x[i] * inv;
    }
  }
  if (i0 == m) return;
  for (index_t j = j0; j < j0 + jw; ++j) {
    double* bj = col(j);
    for (index_t t = j0; t < j; ++t) {
      const double ljt = l[j + t * ldl];
      if (ljt == 0.0) continue;
      const double* bt = col(t);
      for (index_t i = i0; i < m; ++i) bj[i] = std::fma(-bt[i], ljt, bj[i]);
    }
    const double inv = 1.0 / l[j + j * ldl];
    for (index_t i = i0; i < m; ++i) bj[i] *= inv;
  }
}

#if SPCHOL_DENSE_X86
SPCHOL_TARGET_AVX512 void trsm_inblock_avx512(index_t m, index_t j0,
                                              index_t jw, const double* l,
                                              index_t ldl, double* b,
                                              index_t ldb) {
  trsm_inblock_body(m, j0, jw, l, ldl, b, ldb);
}
SPCHOL_TARGET_AVX2 void trsm_inblock_avx2(index_t m, index_t j0, index_t jw,
                                          const double* l, index_t ldl,
                                          double* b, index_t ldb) {
  trsm_inblock_body(m, j0, jw, l, ldl, b, ldb);
}
#endif

void trsm_inblock(index_t m, index_t j0, index_t jw, const double* l,
                  index_t ldl, double* b, index_t ldb) {
  switch (kernel_variant()) {
#if SPCHOL_DENSE_X86
    case KernelVariant::kAvx512:
      return trsm_inblock_avx512(m, j0, jw, l, ldl, b, ldb);
    case KernelVariant::kAvx2:
      return trsm_inblock_avx2(m, j0, jw, l, ldl, b, ldb);
#endif
    default:
      return trsm_inblock_body(m, j0, jw, l, ldl, b, ldb);
  }
}

}  // namespace

void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  for (index_t j0 = 0; j0 < n; j0 += kNB) {
    const index_t jw = std::min(kNB, n - j0);
    // Contributions from already-solved column blocks:
    // B(:, j0:j0+jw) -= X(:, 0:j0) · L(j0:j0+jw, 0:j0)ᵀ.
    if (j0 > 0) {
      gemm_nt_minus(m, jw, j0, b, ldb, l + j0, ldl, b + j0 * ldb, ldb);
    }
    trsm_inblock(m, j0, jw, l, ldl, b, ldb);
  }
}

void trsm_right_lower_trans_parallel(ThreadPool& pool, std::size_t threads,
                                     index_t m, index_t n, const double* l,
                                     index_t ldl, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  if (threads <= 1 || m < 64) {
    trsm_right_lower_trans(m, n, l, ldl, b, ldb);
    return;
  }
  // Rows of B are independent in a right-side solve.
  parallel_for(
      pool, 0, m, threads,
      [&](index_t lo, index_t hi) {
        trsm_right_lower_trans(hi - lo, n, l, ldl, b + lo, ldb);
      },
      /*grain=*/32);
}

}  // namespace spchol::dense
