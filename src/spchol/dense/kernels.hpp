// Dense BLAS-style kernels used on supernodes. All matrices are
// column-major with explicit leading dimensions. These are the four
// operations the paper offloads: DPOTRF, DTRSM, DSYRK, DGEMM.
//
// GEMM and SYRK run one packed, register-blocked kernel: A is packed into
// MR-row slivers and B into NR-column slivers (zero-padded), and an MR×NR
// FMA register tile sweeps kGemmKC-deep panels. TRSM and POTRF route most
// of their flops through GEMM/SYRK. The instruction-set variant of every
// kernel (AVX-512F, AVX2+FMA or portable) is chosen once per process from
// cpuid; packing workspaces are per thread and matrix-size independent.
//
// Numeric contract: every element of C := C − A·Bᵀ is computed the same
// way wherever it falls in a tile or a thread partition — for each kGemmKC
// block of k, starting at k = 0: acc = 0; acc = fma(a_ik, b_jk, acc) for k
// ascending; c_ij −= acc. All variants follow it, so they give the same
// bits.
//
// The *_parallel variants partition the OUTPUT across threads so every
// element is written by exactly one thread with a fixed accumulation
// order — results are bitwise identical to the serial kernels.
#pragma once

#include <cstddef>

#include "spchol/support/common.hpp"
#include "spchol/support/thread_pool.hpp"

namespace spchol::dense {

/// In-place lower Cholesky factorization: A = L·Lᵀ (strictly upper part of
/// A is ignored and left untouched). Throws NotPositiveDefinite with the
/// local column index on a non-positive pivot.
void potrf_lower(index_t n, double* a, index_t lda);

/// B := B · L⁻ᵀ where L (n×n, lower) holds a potrf result; B is m×n.
/// This factorizes the rectangular part of a supernode.
void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb);

/// C := C − A·Aᵀ, lower triangle of C only; A is n×k, C is n×n.
void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc);

/// C := C − A·Bᵀ; A is m×k, B is n×k, C is m×n.
void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc);

// ---- kernel variants ----------------------------------------------------

/// Instruction-set variant of the dense kernels.
enum class KernelVariant { kPortable, kAvx2, kAvx512 };

/// The variant every dense kernel in this process runs: the widest one the
/// host supports, detected once.
KernelVariant kernel_variant();
bool kernel_variant_supported(KernelVariant v);
const char* kernel_variant_name(KernelVariant v);

/// gemm_nt_minus / syrk_lower_nt on an explicit (supported) variant; every
/// variant gives the same bits as the one kernel_variant() selects.
void gemm_nt_minus_variant(KernelVariant v, index_t m, index_t n, index_t k,
                           const double* a, index_t lda, const double* b,
                           index_t ldb, double* c, index_t ldc);
void syrk_lower_nt_variant(KernelVariant v, index_t n, index_t k,
                           const double* a, index_t lda, double* c,
                           index_t ldc);

/// Blocking of the packed kernel: k depth of one accumulation block, rows of
/// A and columns of B packed per block (multiples of every variant's tile).
inline constexpr index_t kGemmKC = 256;
inline constexpr index_t kGemmMC = 96;
inline constexpr index_t kGemmNC = 128;

// ---- parallel variants -------------------------------------------------

void potrf_lower_parallel(ThreadPool& pool, std::size_t threads, index_t n,
                          double* a, index_t lda);
void trsm_right_lower_trans_parallel(ThreadPool& pool, std::size_t threads,
                                     index_t m, index_t n, const double* l,
                                     index_t ldl, double* b, index_t ldb);
void syrk_lower_nt_parallel(ThreadPool& pool, std::size_t threads, index_t n,
                            index_t k, const double* a, index_t lda,
                            double* c, index_t ldc);
void gemm_nt_minus_parallel(ThreadPool& pool, std::size_t threads, index_t m,
                            index_t n, index_t k, const double* a,
                            index_t lda, const double* b, index_t ldb,
                            double* c, index_t ldc);

// ---- flop counts (used by the performance model) -----------------------

inline double flops_potrf(index_t n) {
  const double d = static_cast<double>(n);
  return d * d * d / 3.0 + d * d / 2.0;
}
inline double flops_trsm(index_t m, index_t n) {
  return static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(n);
}
inline double flops_syrk(index_t n, index_t k) {
  return static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}
inline double flops_gemm(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace spchol::dense
