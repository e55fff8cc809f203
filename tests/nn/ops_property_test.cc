// Property-based sweeps over the dense kernels: algebraic identities that
// must hold for every shape, checked across a parameter grid.

#include <cmath>
#include <tuple>

#include "doduo/nn/ops.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

class MatMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulPropertyTest, MatchesNaiveTripleLoop) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  Tensor a({m, k});
  Tensor b({k, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  MatMul(a, b, &c);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double expected = 0.0;
      for (int l = 0; l < k; ++l) {
        expected += static_cast<double>(a.at(i, l)) *
                    static_cast<double>(b.at(l, j));
      }
      ASSERT_NEAR(c.at(i, j), expected, 1e-3 * (1.0 + std::fabs(expected)))
          << i << "," << j;
    }
  }
}

TEST_P(MatMulPropertyTest, TransposedVariantsAgree) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 31 + k * 7 + n));
  Tensor a({m, k});
  Tensor b({k, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);

  Tensor reference;
  MatMul(a, b, &reference);

  // a · b == a · (bᵀ)ᵀ via MatMulTransposedB.
  Tensor b_transposed({n, k});
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) b_transposed.at(j, i) = b.at(i, j);
  }
  Tensor via_bt;
  MatMulTransposedB(a, b_transposed, &via_bt);
  for (int64_t i = 0; i < reference.size(); ++i) {
    ASSERT_NEAR(via_bt.data()[i], reference.data()[i],
                1e-3 * (1.0 + static_cast<double>(
                                  std::fabs(reference.data()[i]))));
  }

  // a · b == (aᵀ)ᵀ · b via MatMulTransposedAAccum from zero.
  Tensor a_transposed({k, m});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) a_transposed.at(j, i) = a.at(i, j);
  }
  Tensor via_at({m, n});
  MatMulTransposedAAccum(a_transposed, b, &via_at);
  for (int64_t i = 0; i < reference.size(); ++i) {
    ASSERT_NEAR(via_at.data()[i], reference.data()[i],
                1e-3 * (1.0 + static_cast<double>(
                                  std::fabs(reference.data()[i]))));
  }
}

TEST_P(MatMulPropertyTest, DistributesOverAddition) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m + k + n));
  Tensor a({m, k});
  Tensor b1({k, n});
  Tensor b2({k, n});
  a.FillNormal(&rng, 1.0f);
  b1.FillNormal(&rng, 1.0f);
  b2.FillNormal(&rng, 1.0f);

  Tensor sum;
  Add(b1, b2, &sum);
  Tensor lhs;
  MatMul(a, sum, &lhs);

  Tensor rhs1, rhs2;
  MatMul(a, b1, &rhs1);
  MatMul(a, b2, &rhs2);
  AddInPlace(&rhs1, rhs2);

  for (int64_t i = 0; i < lhs.size(); ++i) {
    ASSERT_NEAR(lhs.data()[i], rhs1.data()[i],
                2e-3 * (1.0 + static_cast<double>(std::fabs(lhs.data()[i]))));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(5, 1, 5), std::make_tuple(4, 4, 4),
                      std::make_tuple(13, 17, 11),
                      std::make_tuple(32, 8, 64),
                      std::make_tuple(3, 64, 2)));

class SoftmaxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxPropertyTest, ShiftInvariantAndStochastic) {
  const int n = GetParam();
  util::Rng rng(static_cast<uint64_t>(n));
  Tensor logits({3, n});
  logits.FillNormal(&rng, 2.0f);

  Tensor probs;
  SoftmaxRows(logits, &probs);

  Tensor shifted = logits;
  for (int64_t i = 0; i < shifted.rows(); ++i) {
    for (int64_t j = 0; j < n; ++j) shifted.at(i, j) += 100.0f;
  }
  Tensor shifted_probs;
  SoftmaxRows(shifted, &shifted_probs);

  for (int64_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_GE(probs.at(i, j), 0.0f);
      sum += static_cast<double>(probs.at(i, j));
      // Invariance to a constant shift of the logits.
      ASSERT_NEAR(probs.at(i, j), shifted_probs.at(i, j), 1e-4);
    }
    ASSERT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST_P(SoftmaxPropertyTest, LogSoftmaxConsistent) {
  const int n = GetParam();
  util::Rng rng(static_cast<uint64_t>(n) + 99);
  Tensor logits({2, n});
  logits.FillNormal(&rng, 3.0f);
  Tensor probs, log_probs;
  SoftmaxRows(logits, &probs);
  LogSoftmaxRows(logits, &log_probs);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_NEAR(std::exp(log_probs.at(i, j)), probs.at(i, j), 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxPropertyTest,
                         ::testing::Values(1, 2, 3, 8, 33, 128));

}  // namespace
}  // namespace doduo::nn
