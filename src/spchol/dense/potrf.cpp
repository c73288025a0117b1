#include <algorithm>
#include <cmath>

#include "spchol/dense/isa.hpp"
#include "spchol/dense/kernels.hpp"

namespace spchol::dense {

namespace {

constexpr index_t kNB = 64;

/// Right-looking unblocked Cholesky on an nb×nb diagonal block.
/// `col_offset` shifts the column reported by NotPositiveDefinite. Trailing
/// updates are a(i,t) = fma(−a(i,j), a(t,j), a(i,t)) in every variant.
[[gnu::always_inline]] inline void potrf_unblocked_body(index_t nb, double* a,
                                                        index_t lda,
                                                        index_t col_offset) {
  for (index_t j = 0; j < nb; ++j) {
    const double d = a[j + j * lda];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw NotPositiveDefinite(col_offset + j);
    }
    const double root = std::sqrt(d);
    a[j + j * lda] = root;
    const double inv = 1.0 / root;
    double* col_j = a + j * lda;
    for (index_t i = j + 1; i < nb; ++i) col_j[i] *= inv;
    for (index_t t = j + 1; t < nb; ++t) {
      const double v = col_j[t];
      if (v == 0.0) continue;
      double* col_t = a + t * lda;
      for (index_t i = t; i < nb; ++i) {
        col_t[i] = std::fma(-col_j[i], v, col_t[i]);
      }
    }
  }
}

#if SPCHOL_DENSE_X86
SPCHOL_TARGET_AVX512 void potrf_unblocked_avx512(index_t nb, double* a,
                                                 index_t lda,
                                                 index_t col_offset) {
  potrf_unblocked_body(nb, a, lda, col_offset);
}
SPCHOL_TARGET_AVX2 void potrf_unblocked_avx2(index_t nb, double* a,
                                             index_t lda,
                                             index_t col_offset) {
  potrf_unblocked_body(nb, a, lda, col_offset);
}
#endif

void potrf_unblocked(index_t nb, double* a, index_t lda, index_t col_offset) {
  switch (kernel_variant()) {
#if SPCHOL_DENSE_X86
    case KernelVariant::kAvx512:
      return potrf_unblocked_avx512(nb, a, lda, col_offset);
    case KernelVariant::kAvx2:
      return potrf_unblocked_avx2(nb, a, lda, col_offset);
#endif
    default:
      return potrf_unblocked_body(nb, a, lda, col_offset);
  }
}

}  // namespace

void potrf_lower(index_t n, double* a, index_t lda) {
  for (index_t k0 = 0; k0 < n; k0 += kNB) {
    const index_t kw = std::min(kNB, n - k0);
    const index_t k1 = k0 + kw;
    potrf_unblocked(kw, a + k0 + k0 * lda, lda, k0);
    if (k1 < n) {
      trsm_right_lower_trans(n - k1, kw, a + k0 + k0 * lda, lda,
                             a + k1 + k0 * lda, lda);
      syrk_lower_nt(n - k1, kw, a + k1 + k0 * lda, lda, a + k1 + k1 * lda,
                    lda);
    }
  }
}

void potrf_lower_parallel(ThreadPool& pool, std::size_t threads, index_t n,
                          double* a, index_t lda) {
  if (threads <= 1 || n < 2 * kNB) {
    potrf_lower(n, a, lda);
    return;
  }
  for (index_t k0 = 0; k0 < n; k0 += kNB) {
    const index_t kw = std::min(kNB, n - k0);
    const index_t k1 = k0 + kw;
    potrf_unblocked(kw, a + k0 + k0 * lda, lda, k0);
    if (k1 < n) {
      trsm_right_lower_trans_parallel(pool, threads, n - k1, kw,
                                      a + k0 + k0 * lda, lda,
                                      a + k1 + k0 * lda, lda);
      syrk_lower_nt_parallel(pool, threads, n - k1, kw, a + k1 + k0 * lda,
                             lda, a + k1 + k1 * lda, lda);
    }
  }
}

}  // namespace spchol::dense
