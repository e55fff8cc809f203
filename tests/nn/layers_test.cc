#include <cmath>
#include <vector>

#include "doduo/nn/activations.h"
#include "doduo/nn/dropout.h"
#include "doduo/nn/embedding.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/nn/linear.h"
#include "doduo/nn/ops.h"
#include "gtest/gtest.h"
#include "testing/gradcheck.h"

namespace doduo::nn {
namespace {

// Scalar "loss" for gradient checks: weighted sum of the layer output so
// that dLoss/dOutput is a fixed tensor we control.
double WeightedSum(const Tensor& out, const Tensor& weights) {
  double total = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) {
    total += static_cast<double>(out.data()[i]) *
             static_cast<double>(weights.data()[i]);
  }
  return total;
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(1);
  Linear layer("l", 2, 3, &rng);
  // Overwrite with known weights.
  layer.weight().value = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  layer.bias().value = Tensor::FromVector({3}, {0.5f, -0.5f, 1.0f});
  Tensor x = Tensor::FromVector({1, 2}, {1, 1});
  const Tensor& y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 10.0f);
}

TEST(LinearTest, InputGradientCheck) {
  util::Rng rng(2);
  Linear layer("l", 4, 3, &rng);
  Tensor x({2, 4});
  x.FillNormal(&rng, 1.0f);
  Tensor dy({2, 3});
  dy.FillNormal(&rng, 1.0f);

  layer.Forward(x);
  Tensor dx = layer.Backward(dy);

  auto loss = [&]() { return WeightedSum(layer.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx);
}

TEST(LinearTest, WeightGradientCheck) {
  util::Rng rng(3);
  Linear layer("l", 3, 2, &rng);
  Tensor x({2, 3});
  x.FillNormal(&rng, 1.0f);
  Tensor dy({2, 2});
  dy.FillNormal(&rng, 1.0f);

  ZeroAllGrads(layer.Parameters());
  layer.Forward(x);
  layer.Backward(dy);
  Tensor analytic_w = layer.weight().grad;
  Tensor analytic_b = layer.bias().grad;

  auto loss = [&]() { return WeightedSum(layer.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&layer.weight().value, loss,
                                     analytic_w);
  testing::ExpectInputGradientsClose(&layer.bias().value, loss, analytic_b);
}

TEST(LinearTest, GradientsAccumulateAcrossBackwards) {
  util::Rng rng(4);
  Linear layer("l", 2, 2, &rng);
  Tensor x = Tensor::FromVector({1, 2}, {1, 2});
  Tensor dy = Tensor::FromVector({1, 2}, {1, 1});
  ZeroAllGrads(layer.Parameters());
  layer.Forward(x);
  layer.Backward(dy);
  const float first = layer.weight().grad.at(0, 0);
  layer.Forward(x);
  layer.Backward(dy);
  EXPECT_FLOAT_EQ(layer.weight().grad.at(0, 0), 2.0f * first);
}

TEST(EmbeddingTest, LookupReturnsRows) {
  util::Rng rng(6);
  Embedding emb("e", 10, 4, &rng);
  const std::vector<int> ids = {3, 3, 7};
  const Tensor& out = emb.Forward(ids);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), out.at(1, j));  // same id, same row
    EXPECT_FLOAT_EQ(out.at(0, j), emb.Row(3)[j]);
  }
}

TEST(EmbeddingTest, BackwardAccumulatesPerId) {
  util::Rng rng(7);
  Embedding emb("e", 5, 2, &rng);
  ZeroAllGrads(emb.Parameters());
  const std::vector<int> ids = {1, 1, 2};  // read again by Backward
  emb.Forward(ids);
  Tensor dy = Tensor::FromVector({3, 2}, {1, 0, 1, 0, 0, 5});
  emb.Backward(dy);
  EXPECT_FLOAT_EQ(emb.table().grad.at(1, 0), 2.0f);  // two hits on id 1
  EXPECT_FLOAT_EQ(emb.table().grad.at(2, 1), 5.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.at(0, 0), 0.0f);
}

TEST(LayerNormTest, OutputIsNormalizedWithUnitGamma) {
  LayerNorm ln("ln", 8);
  util::Rng rng(8);
  Tensor x({3, 8});
  x.FillNormal(&rng, 3.0f);
  const Tensor& y = ln.Forward(x);
  for (int64_t i = 0; i < 3; ++i) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t j = 0; j < 8; ++j) mean += static_cast<double>(y.at(i, j));
    mean /= 8.0;
    for (int64_t j = 0; j < 8; ++j) {
      var += (static_cast<double>(y.at(i, j)) - mean) *
             (static_cast<double>(y.at(i, j)) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, InputGradientCheck) {
  LayerNorm ln("ln", 6);
  util::Rng rng(9);
  // Non-trivial gamma/beta.
  ln.Parameters()[0]->value.FillNormal(&rng, 1.0f);
  ln.Parameters()[1]->value.FillNormal(&rng, 1.0f);
  Tensor x({2, 6});
  x.FillNormal(&rng, 1.5f);
  Tensor dy({2, 6});
  dy.FillNormal(&rng, 1.0f);

  ln.Forward(x);
  Tensor dx = ln.Backward(dy);

  auto loss = [&]() { return WeightedSum(ln.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx);
}

TEST(LayerNormTest, GammaBetaGradientCheck) {
  LayerNorm ln("ln", 5);
  util::Rng rng(10);
  Tensor x({2, 5});
  x.FillNormal(&rng, 1.0f);
  Tensor dy({2, 5});
  dy.FillNormal(&rng, 1.0f);

  ZeroAllGrads(ln.Parameters());
  ln.Forward(x);
  ln.Backward(dy);
  Tensor g_gamma = ln.Parameters()[0]->grad;
  Tensor g_beta = ln.Parameters()[1]->grad;

  auto loss = [&]() { return WeightedSum(ln.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&ln.Parameters()[0]->value, loss,
                                     g_gamma);
  testing::ExpectInputGradientsClose(&ln.Parameters()[1]->value, loss,
                                     g_beta);
}

TEST(GeluTest, KnownValues) {
  EXPECT_NEAR(GeluScalar(0.0f), 0.0f, 1e-6);
  EXPECT_NEAR(GeluScalar(100.0f), 100.0f, 1e-3);
  EXPECT_NEAR(GeluScalar(-100.0f), 0.0f, 1e-3);
  // gelu(1) ≈ 0.8412.
  EXPECT_NEAR(GeluScalar(1.0f), 0.8412f, 1e-3);
}

TEST(GeluTest, GradientCheck) {
  Gelu gelu;
  util::Rng rng(11);
  Tensor x({2, 4});
  x.FillNormal(&rng, 1.0f);
  Tensor dy({2, 4});
  dy.FillNormal(&rng, 1.0f);
  gelu.Forward(x);
  Tensor dx = gelu.Backward(dy);
  auto loss = [&]() { return WeightedSum(gelu.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx);
}

TEST(ReluTest, ForwardAndBackward) {
  Relu relu;
  Tensor x = Tensor::FromVector({1, 4}, {-1, 0, 1, 2});
  const Tensor& y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 2.0f);
  Tensor dy = Tensor::FromVector({1, 4}, {5, 5, 5, 5});
  const Tensor& dx = relu.Backward(dy);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 5.0f);
}

TEST(TanhLayerTest, GradientCheck) {
  TanhLayer tanh_layer;
  util::Rng rng(12);
  Tensor x({1, 5});
  x.FillNormal(&rng, 1.0f);
  Tensor dy({1, 5});
  dy.FillNormal(&rng, 1.0f);
  tanh_layer.Forward(x);
  Tensor dx = tanh_layer.Backward(dy);
  auto loss = [&]() { return WeightedSum(tanh_layer.Forward(x), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx);
}

// Identity dropout copies nothing: both directions return their argument.
TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(13);
  Dropout dropout(0.5f, &rng);
  dropout.set_training(false);
  Tensor x = Tensor::FromVector({1, 4}, {1, 2, 3, 4});
  EXPECT_EQ(&dropout.Forward(x), &x);
  Tensor dy = Tensor::FromVector({1, 4}, {5, 6, 7, 8});
  EXPECT_EQ(&dropout.Backward(dy), &dy);
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  util::Rng rng(14);
  Dropout dropout(0.5f, &rng);
  Tensor x = Tensor::Full({1, 1000}, 1.0f);
  const Tensor& y = dropout.Forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.data()[i], 2.0f);  // 1/(1-0.5)
    }
  }
  EXPECT_NEAR(zeros, 500, 60);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(15);
  Dropout dropout(0.5f, &rng);
  Tensor x = Tensor::Full({1, 100}, 1.0f);
  const Tensor& y = dropout.Forward(x);
  Tensor dy = Tensor::Full({1, 100}, 1.0f);
  const Tensor& dx = dropout.Backward(dy);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(dx.data()[i], y.data()[i]);  // same 0 / 2.0 pattern
  }
}

TEST(DropoutTest, ZeroRateIsIdentityInTraining) {
  util::Rng rng(16);
  Dropout dropout(0.0f, &rng);
  ASSERT_TRUE(dropout.training());
  Tensor x = Tensor::FromVector({1, 3}, {1, 2, 3});
  EXPECT_EQ(&dropout.Forward(x), &x);
  Tensor dy = Tensor::FromVector({1, 3}, {4, 5, 6});
  EXPECT_EQ(&dropout.Backward(dy), &dy);
}

}  // namespace
}  // namespace doduo::nn
