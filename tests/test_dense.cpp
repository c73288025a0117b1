// Dense kernels vs naive references, parameterized over shapes, plus
// bitwise serial/parallel agreement (the property the GPU simulation's
// determinism rests on).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/reference.hpp"
#include "spchol/support/rng.hpp"

namespace spchol::dense {
namespace {

std::vector<double> random_matrix([[maybe_unused]] index_t rows,
                                  index_t cols, index_t ld,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(static_cast<std::size_t>(ld) * cols);
  for (auto& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

std::vector<double> random_spd_dense(index_t n, index_t ld,
                                     std::uint64_t seed) {
  auto m = random_matrix(n, n, ld, seed);
  // Symmetrize the lower triangle's mirror and dominate the diagonal.
  for (index_t j = 0; j < n; ++j) {
    double sum = 0.0;
    for (index_t i = 0; i < n; ++i) {
      if (i != j) sum += std::abs(m[i + static_cast<std::size_t>(j) * ld]);
    }
    m[j + static_cast<std::size_t>(j) * ld] = sum + 1.0;
  }
  return m;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

// Bitwise equality (a NaN-vs-number mismatch fails, unlike a max |a − b|
// reduction through std::max).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- GEMM ----------------------------------------------------------------

struct GemmShape {
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [m, n, k] = GetParam();
  const index_t lda = m + 3, ldb = n + 1, ldc = m + 2;
  const auto a = random_matrix(m, k, lda, 1);
  const auto b = random_matrix(n, k, ldb, 2);
  auto c1 = random_matrix(m, n, ldc, 3);
  auto c2 = c1;
  gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c1.data(), ldc);
  ref::gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c2.data(), ldc);
  EXPECT_LT(max_diff(c1, c2), 1e-10 * std::max<index_t>(k, 1));
}

TEST_P(GemmTest, ParallelBitwiseEqualsSerial) {
  const auto [m, n, k] = GetParam();
  const index_t lda = m, ldb = n, ldc = m;
  const auto a = random_matrix(m, k, lda, 4);
  const auto b = random_matrix(n, k, ldb, 5);
  auto c1 = random_matrix(m, n, ldc, 6);
  auto c2 = c1;
  gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c1.data(), ldc);
  gemm_nt_minus_parallel(ThreadPool::global(), 8, m, n, k, a.data(), lda,
                         b.data(), ldb, c2.data(), ldc);
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{5, 3, 2},
                      GemmShape{16, 16, 16}, GemmShape{33, 7, 129},
                      GemmShape{100, 1, 5}, GemmShape{1, 50, 260},
                      GemmShape{97, 101, 67}, GemmShape{200, 40, 300},
                      GemmShape{3, 3, 1000}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

// ---- SYRK ----------------------------------------------------------------

struct SyrkShape {
  index_t n, k;
};

class SyrkTest : public ::testing::TestWithParam<SyrkShape> {};

TEST_P(SyrkTest, MatchesReferenceOnLowerTriangle) {
  const auto [n, k] = GetParam();
  const index_t lda = n + 1, ldc = n + 2;
  const auto a = random_matrix(n, k, lda, 7);
  auto c1 = random_matrix(n, n, ldc, 8);
  auto c2 = c1;
  syrk_lower_nt(n, k, a.data(), lda, c1.data(), ldc);
  ref::syrk_lower_nt(n, k, a.data(), lda, c2.data(), ldc);
  // Lower triangle must match; the strict upper must be untouched.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const std::size_t idx = i + static_cast<std::size_t>(j) * ldc;
      if (i >= j) {
        EXPECT_NEAR(c1[idx], c2[idx], 1e-10 * k) << i << "," << j;
      } else {
        EXPECT_EQ(c1[idx], c2[idx]) << "upper triangle touched";
      }
    }
  }
}

TEST_P(SyrkTest, ParallelBitwiseEqualsSerial) {
  const auto [n, k] = GetParam();
  const auto a = random_matrix(n, k, n, 9);
  auto c1 = random_matrix(n, n, n, 10);
  auto c2 = c1;
  syrk_lower_nt(n, k, a.data(), n, c1.data(), n);
  syrk_lower_nt_parallel(ThreadPool::global(), 7, n, k, a.data(), n,
                         c2.data(), n);
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkTest,
    ::testing::Values(SyrkShape{1, 1}, SyrkShape{2, 9}, SyrkShape{17, 5},
                      SyrkShape{64, 64}, SyrkShape{65, 33},
                      SyrkShape{128, 20}, SyrkShape{150, 257},
                      SyrkShape{40, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

// ---- TRSM ----------------------------------------------------------------

struct TrsmShape {
  index_t m, n;
};

class TrsmTest : public ::testing::TestWithParam<TrsmShape> {};

TEST_P(TrsmTest, MatchesReference) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 11);
  ref::potrf_lower(n, l.data(), n);
  auto b1 = random_matrix(m, n, m, 12);
  auto b2 = b1;
  trsm_right_lower_trans(m, n, l.data(), n, b1.data(), m);
  ref::trsm_right_lower_trans(m, n, l.data(), n, b2.data(), m);
  EXPECT_LT(max_diff(b1, b2), 1e-9);
}

TEST_P(TrsmTest, SolvesXLtEqualsB) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 13);
  ref::potrf_lower(n, l.data(), n);
  const auto b0 = random_matrix(m, n, m, 14);
  auto x = b0;
  trsm_right_lower_trans(m, n, l.data(), n, x.data(), m);
  // Check X·Lᵀ == B.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t t = 0; t <= j; ++t) {
        s += x[i + static_cast<std::size_t>(t) * m] *
             l[j + static_cast<std::size_t>(t) * n];
      }
      EXPECT_NEAR(s, b0[i + static_cast<std::size_t>(j) * m], 1e-9);
    }
  }
}

TEST_P(TrsmTest, ParallelBitwiseEqualsSerial) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 15);
  ref::potrf_lower(n, l.data(), n);
  auto b1 = random_matrix(m, n, m, 16);
  auto b2 = b1;
  trsm_right_lower_trans(m, n, l.data(), n, b1.data(), m);
  trsm_right_lower_trans_parallel(ThreadPool::global(), 6, m, n, l.data(), n,
                                  b2.data(), m);
  EXPECT_TRUE(bitwise_equal(b1, b2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrsmTest,
    ::testing::Values(TrsmShape{1, 1}, TrsmShape{7, 3}, TrsmShape{64, 64},
                      TrsmShape{100, 65}, TrsmShape{201, 130},
                      TrsmShape{5, 96}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n);
    });

// ---- POTRF ---------------------------------------------------------------

class PotrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfTest, MatchesReference) {
  const index_t n = GetParam();
  auto a1 = random_spd_dense(n, n + 1, 17);
  // Only the lower triangle is read; mirror it for the reference check.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a1[j + static_cast<std::size_t>(i) * (n + 1)] =
          a1[i + static_cast<std::size_t>(j) * (n + 1)];
    }
  }
  auto a2 = a1;
  potrf_lower(n, a1.data(), n + 1);
  ref::potrf_lower(n, a2.data(), n + 1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      EXPECT_NEAR(a1[i + static_cast<std::size_t>(j) * (n + 1)],
                  a2[i + static_cast<std::size_t>(j) * (n + 1)], 1e-9)
          << i << "," << j;
    }
  }
}

TEST_P(PotrfTest, ReconstructsA) {
  const index_t n = GetParam();
  const auto a0 = random_spd_dense(n, n, 18);
  auto l = a0;
  potrf_lower(n, l.data(), n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t k = 0; k <= j; ++k) {
        s += l[i + static_cast<std::size_t>(k) * n] *
             l[j + static_cast<std::size_t>(k) * n];
      }
      EXPECT_NEAR(s, a0[i + static_cast<std::size_t>(j) * n], 1e-9);
    }
  }
}

TEST_P(PotrfTest, ParallelBitwiseEqualsSerial) {
  const index_t n = GetParam();
  auto a1 = random_spd_dense(n, n, 19);
  auto a2 = a1;
  potrf_lower(n, a1.data(), n);
  potrf_lower_parallel(ThreadPool::global(), 8, n, a2.data(), n);
  EXPECT_TRUE(bitwise_equal(a1, a2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Values(1, 2, 7, 63, 64, 65, 100, 192,
                                           257),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Potrf, ThrowsOnIndefiniteWithColumnIndex) {
  auto a = random_spd_dense(80, 80, 20);
  a[70 + 70 * 80] = -1.0;  // break pivot 70 (second block)
  try {
    potrf_lower(80, a.data(), 80);
    FAIL() << "expected NotPositiveDefinite";
  } catch (const NotPositiveDefinite& e) {
    EXPECT_EQ(e.column(), 70);
  }
}

// ---- Packed-kernel numeric contract ----------------------------------------
// Every output element is computed by one formula wherever it falls in the
// register tiles, cache blocks or a thread partition. Sizes cross the tile
// edges of every variant (MR 4/12/16, NR 4/8), kGemmMC and kGemmNC; depths
// cover one step, exactly one kGemmKC block, and a ragged third block.

constexpr index_t kContractM = kGemmMC + 5;   // 101
constexpr index_t kContractN = kGemmNC + 5;   // 133
const index_t kContractDepths[] = {1, kGemmKC, 2 * kGemmKC + 1};

TEST(DenseContract, GemmRowAndColumnSplitsAreBitwiseInvariant) {
  const index_t m = kContractM, n = kContractN;
  for (const index_t k : kContractDepths) {
    const index_t lda = m + 1, ldb = n + 3, ldc = m + 2;
    const auto a = random_matrix(m, k, lda, 30);
    const auto b = random_matrix(n, k, ldb, 31);
    const auto c0 = random_matrix(m, n, ldc, 32);
    auto whole = c0;
    gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, whole.data(), ldc);
    for (index_t s = 0; s <= m; ++s) {
      auto c = c0;
      gemm_nt_minus(s, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
      gemm_nt_minus(m - s, n, k, a.data() + s, lda, b.data(), ldb,
                    c.data() + s, ldc);
      ASSERT_TRUE(bitwise_equal(c, whole)) << "row split " << s << " k " << k;
    }
    for (index_t s = 0; s <= n; ++s) {
      auto c = c0;
      gemm_nt_minus(m, s, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
      gemm_nt_minus(m, n - s, k, a.data(), lda, b.data() + s, ldb,
                    c.data() + static_cast<std::size_t>(s) * ldc, ldc);
      ASSERT_TRUE(bitwise_equal(c, whole)) << "col split " << s << " k " << k;
    }
  }
}

TEST(DenseContract, SyrkColumnSplitIsBitwiseInvariant) {
  const index_t n = kContractN;
  for (const index_t k : kContractDepths) {
    const index_t lda = n + 1, ldc = n + 2;
    const auto a = random_matrix(n, k, lda, 33);
    const auto c0 = random_matrix(n, n, ldc, 34);
    auto whole = c0;
    syrk_lower_nt(n, k, a.data(), lda, whole.data(), ldc);
    for (index_t s = 0; s <= n; ++s) {
      // Columns [0, s): the leading triangle plus a GEMM for the rows below
      // (syrk_lower_nt_parallel's chunk shape); columns [s, n): the
      // trailing triangle.
      auto c = c0;
      syrk_lower_nt(s, k, a.data(), lda, c.data(), ldc);
      gemm_nt_minus(n - s, s, k, a.data() + s, lda, a.data(), lda,
                    c.data() + s, ldc);
      syrk_lower_nt(n - s, k, a.data() + s, lda,
                    c.data() + s + static_cast<std::size_t>(s) * ldc, ldc);
      ASSERT_TRUE(bitwise_equal(c, whole)) << "split " << s << " k " << k;
    }
  }
}

TEST(DenseContract, EverySupportedVariantMatchesPortableBitwise) {
  ASSERT_TRUE(kernel_variant_supported(kernel_variant()));
  const KernelVariant variants[] = {KernelVariant::kPortable,
                                    KernelVariant::kAvx2,
                                    KernelVariant::kAvx512};
  const index_t m = kContractM, n = kContractN;
  for (const index_t k : kContractDepths) {
    const auto a = random_matrix(m, k, m, 35);
    const auto b = random_matrix(n, k, n, 36);
    const auto ca = random_matrix(n, n, n, 37);
    const auto cg = random_matrix(m, n, m, 38);
    auto gemm_ref = cg;
    gemm_nt_minus_variant(KernelVariant::kPortable, m, n, k, a.data(), m,
                          b.data(), n, gemm_ref.data(), m);
    auto syrk_ref = ca;
    syrk_lower_nt_variant(KernelVariant::kPortable, n, k, b.data(), n,
                          syrk_ref.data(), n);
    for (const KernelVariant v : variants) {
      if (!kernel_variant_supported(v)) continue;
      auto g = cg;
      gemm_nt_minus_variant(v, m, n, k, a.data(), m, b.data(), n, g.data(), m);
      EXPECT_TRUE(bitwise_equal(g, gemm_ref))
          << kernel_variant_name(v) << " gemm k " << k;
      auto sy = ca;
      syrk_lower_nt_variant(v, n, k, b.data(), n, sy.data(), n);
      EXPECT_TRUE(bitwise_equal(sy, syrk_ref))
          << kernel_variant_name(v) << " syrk k " << k;
    }
    // The process-wide kernels run the selected variant.
    auto g = cg;
    gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, g.data(), m);
    EXPECT_TRUE(bitwise_equal(g, gemm_ref)) << "gemm_nt_minus k " << k;
  }
}

TEST(Kernels, FlopCounts) {
  EXPECT_DOUBLE_EQ(flops_gemm(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(flops_trsm(5, 4), 80.0);
  EXPECT_DOUBLE_EQ(flops_syrk(3, 2), 24.0);
  EXPECT_NEAR(flops_potrf(10), 1000.0 / 3.0 + 50.0, 1e-9);
}

TEST(Kernels, DegenerateDimensionsAreNoOps) {
  double x = 42.0;
  gemm_nt_minus(0, 1, 1, &x, 1, &x, 1, &x, 1);
  syrk_lower_nt(0, 1, &x, 1, &x, 1);
  trsm_right_lower_trans(0, 0, &x, 1, &x, 1);
  potrf_lower(0, &x, 1);
  EXPECT_EQ(x, 42.0);
}

}  // namespace
}  // namespace spchol::dense
