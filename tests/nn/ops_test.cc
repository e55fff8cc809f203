#include "doduo/nn/ops.h"

#include <cmath>

#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c;
  MatMul(a, b, &c);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNoop) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::FromVector({2, 2}, {1, 0, 0, 1});
  Tensor c;
  MatMul(a, eye, &c);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
}

TEST(MatMulTransposedBTest, MatchesExplicitTranspose) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bt = Tensor::FromVector({2, 3}, {7, 9, 11, 8, 10, 12});  // bᵀ rows
  Tensor c;
  MatMulTransposedB(a, bt, &c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTransposedAAccumTest, MatchesExplicitTranspose) {
  // a is [k=2, m=2], b is [k=2, n=3]; out = aᵀ·b is [2, 3].
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 1, 1});
  Tensor out({2, 3});
  MatMulTransposedAAccum(a, b, &out);
  // aᵀ = [[1,3],[2,4]]; aᵀ·b = [[1, 3, 4], [2, 4, 6]].
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 4.0f);
  EXPECT_FLOAT_EQ(out.at(1, 2), 6.0f);
}

TEST(ElementwiseTest, AddVariants) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c;
  Add(a, b, &c);
  EXPECT_FLOAT_EQ(c.at(1), 22.0f);
  AddInPlace(&a, b);
  EXPECT_FLOAT_EQ(a.at(2), 33.0f);
  Scale(&a, 2.0f);
  EXPECT_FLOAT_EQ(a.at(0), 22.0f);
}

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {0, 0, 1, 1});
  Tensor bias = Tensor::FromVector({2}, {5, 7});
  AddRowBroadcast(&a, bias);
  EXPECT_FLOAT_EQ(a.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 8.0f);
}

TEST(BroadcastTest, ColumnSumAccum) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor out = Tensor::FromVector({3}, {100, 0, 0});
  ColumnSumAccum(a, &out);
  EXPECT_FLOAT_EQ(out.at(0), 105.0f);
  EXPECT_FLOAT_EQ(out.at(1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(2), 9.0f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor logits = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor probs;
  SoftmaxRows(logits, &probs);
  for (int64_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_GT(probs.at(i, j), 0.0f);
      sum += static_cast<double>(probs.at(i, j));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  // Monotonic in the logits.
  EXPECT_LT(probs.at(0, 0), probs.at(0, 2));
}

TEST(SoftmaxTest, LargeLogitsStable) {
  Tensor logits = Tensor::FromVector({1, 2}, {1000.0f, 1001.0f});
  Tensor probs;
  SoftmaxRows(logits, &probs);
  EXPECT_FALSE(std::isnan(probs.at(0, 0)));
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1), 1.0, 1e-5);
}

TEST(SoftmaxTest, BackwardMatchesFiniteDifference) {
  Tensor logits = Tensor::FromVector({1, 3}, {0.5f, -0.3f, 0.1f});
  Tensor probs;
  SoftmaxRows(logits, &probs);
  // Upstream gradient picks out p[0]; d p0/d z_j = p0 (δ0j - p_j).
  Tensor dy = Tensor::FromVector({1, 3}, {1.0f, 0.0f, 0.0f});
  Tensor dx;
  SoftmaxRowsBackward(probs, dy, &dx);
  const float p0 = probs.at(0, 0);
  EXPECT_NEAR(dx.at(0, 0), p0 * (1.0f - p0), 1e-5);
  EXPECT_NEAR(dx.at(0, 1), -p0 * probs.at(0, 1), 1e-5);
}

TEST(LogSoftmaxTest, MatchesLogOfSoftmax) {
  Tensor logits = Tensor::FromVector({1, 3}, {0.2f, 1.2f, -0.7f});
  Tensor probs, log_probs;
  SoftmaxRows(logits, &probs);
  LogSoftmaxRows(logits, &log_probs);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(log_probs.at(0, j), std::log(probs.at(0, j)), 1e-5);
  }
}

TEST(DotTest, HandlesRemainder) {
  const float a[5] = {1, 2, 3, 4, 5};
  const float b[5] = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(Dot(a, b, 5), 35.0f);
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 22.0f);
  EXPECT_FLOAT_EQ(Dot(a, b, 0), 0.0f);
}

}  // namespace
}  // namespace doduo::nn
