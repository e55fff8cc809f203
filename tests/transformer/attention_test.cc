#include "doduo/transformer/attention.h"

#include <cmath>

#include "doduo/nn/ops.h"
#include "gtest/gtest.h"
#include "testing/gradcheck.h"
#include "transformer/attention_oracle.h"

namespace doduo::transformer {
namespace {

TransformerConfig SmallConfig() {
  TransformerConfig config;
  config.vocab_size = 50;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.num_layers = 1;
  config.dropout = 0.0f;
  return config;
}

double WeightedSum(const nn::Tensor& out, const nn::Tensor& weights) {
  double total = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) {
    total += static_cast<double>(out.data()[i]) *
             static_cast<double>(weights.data()[i]);
  }
  return total;
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  util::Rng rng(1);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({5, 8});
  x.FillNormal(&rng, 1.0f);
  const nn::Tensor& y = attn.Forward(x, nullptr);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

TEST(AttentionTest, ProbabilitiesAreRowStochastic) {
  util::Rng rng(2);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({4, 8});
  x.FillNormal(&rng, 1.0f);
  attn.Forward(x, nullptr);
  ASSERT_EQ(attn.attention_probs().size(), 2u);
  for (const nn::Tensor& probs : attn.attention_probs()) {
    ASSERT_EQ(probs.rows(), 4);
    ASSERT_EQ(probs.cols(), 4);
    for (int64_t i = 0; i < 4; ++i) {
      double sum = 0.0;
      for (int64_t j = 0; j < 4; ++j)
        sum += static_cast<double>(probs.at(i, j));
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(AttentionTest, MaskBlocksAttention) {
  util::Rng rng(3);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({3, 8});
  x.FillNormal(&rng, 1.0f);
  // Forbid position 0 from attending to position 2.
  AttentionMask mask({3, 3});
  mask.at(0, 2) = kAttentionMaskValue;
  attn.Forward(x, &mask);
  for (const nn::Tensor& probs : attn.attention_probs()) {
    EXPECT_LT(probs.at(0, 2), 1e-6);
    EXPECT_GT(probs.at(1, 2), 0.0f);  // other rows unaffected
  }
}

TEST(AttentionTest, InputGradientCheck) {
  util::Rng rng(4);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({3, 8});
  x.FillNormal(&rng, 0.5f);
  nn::Tensor dy({3, 8});
  dy.FillNormal(&rng, 1.0f);

  attn.Forward(x, nullptr);
  nn::Tensor dx = attn.Backward(dy);

  auto loss = [&]() { return WeightedSum(attn.Forward(x, nullptr), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx, 1e-3, 3e-2, 3e-2);
}

TEST(AttentionTest, InputGradientCheckWithMask) {
  util::Rng rng(5);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({3, 8});
  x.FillNormal(&rng, 0.5f);
  nn::Tensor dy({3, 8});
  dy.FillNormal(&rng, 1.0f);
  AttentionMask mask({3, 3});
  mask.at(0, 1) = kAttentionMaskValue;
  mask.at(2, 0) = kAttentionMaskValue;

  attn.Forward(x, &mask);
  nn::Tensor dx = attn.Backward(dy);

  auto loss = [&]() { return WeightedSum(attn.Forward(x, &mask), dy); };
  testing::ExpectInputGradientsClose(&x, loss, dx, 1e-3, 3e-2, 3e-2);
}

TEST(AttentionTest, ParameterGradientCheck) {
  util::Rng rng(6);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor x({2, 8});
  x.FillNormal(&rng, 0.5f);
  nn::Tensor dy({2, 8});
  dy.FillNormal(&rng, 1.0f);

  nn::ParameterList params = attn.Parameters();
  ASSERT_EQ(params.size(), 4u);  // packed wqkv + wo, × (w, b)
  nn::ZeroAllGrads(params);
  attn.Forward(x, nullptr);
  attn.Backward(dy);

  auto loss = [&]() { return WeightedSum(attn.Forward(x, nullptr), dy); };
  // Check the packed projection weight and the output bias.
  nn::Tensor wqkv_grad = params[0]->grad;
  testing::ExpectInputGradientsClose(&params[0]->value, loss, wqkv_grad, 1e-3,
                                     3e-2, 3e-2);
  nn::Tensor wo_bias_grad = params[3]->grad;
  testing::ExpectInputGradientsClose(&params[3]->value, loss, wo_bias_grad,
                                     1e-3, 3e-2, 3e-2);
}

TEST(AttentionTest, ReferenceParameterGradientCheck) {
  // Same check on the copy-based test oracle the kernel parity tests use.
  util::Rng rng(6);
  const TransformerConfig config = SmallConfig();
  MultiHeadSelfAttention attn("a", config, &rng);
  AttentionOracle oracle(&attn, config);
  nn::Tensor x({2, 8});
  x.FillNormal(&rng, 0.5f);
  nn::Tensor dy({2, 8});
  dy.FillNormal(&rng, 1.0f);

  nn::ParameterList params = oracle.Parameters();
  nn::ZeroAllGrads(params);
  oracle.Forward(x, nullptr);
  oracle.Backward(dy);

  auto loss = [&]() { return WeightedSum(oracle.Forward(x, nullptr), dy); };
  nn::Tensor wqkv_grad = params[0]->grad;
  testing::ExpectInputGradientsClose(&params[0]->value, loss, wqkv_grad, 1e-3,
                                     3e-2, 3e-2);
}

TEST(AttentionTest, FusedMatchesReferenceBitwise) {
  // The per-head kernel must reproduce the copy-based oracle exactly —
  // forward outputs, attention probabilities, input gradients, and
  // parameter gradients are all required to be bit-identical.
  util::Rng rng(8);
  const TransformerConfig config = SmallConfig();
  MultiHeadSelfAttention attn("a", config, &rng);
  AttentionOracle oracle(&attn, config);
  nn::Tensor x({5, 8});
  x.FillNormal(&rng, 0.7f);
  nn::Tensor dy({5, 8});
  dy.FillNormal(&rng, 1.0f);
  AttentionMask mask({5, 5});
  mask.at(0, 3) = kAttentionMaskValue;
  mask.at(4, 1) = kAttentionMaskValue;

  nn::ParameterList params = attn.Parameters();
  nn::ParameterList ref_params = oracle.Parameters();
  nn::ZeroAllGrads(params);
  nn::ZeroAllGrads(ref_params);
  nn::Tensor y_fused = attn.Forward(x, &mask);
  nn::Tensor dx_fused = attn.Backward(dy);
  nn::Tensor y_ref = oracle.Forward(x, &mask);
  nn::Tensor dx_ref = oracle.Backward(dy);
  const std::vector<nn::Tensor>& probs_fused = attn.attention_probs();
  const std::vector<nn::Tensor>& probs_ref = oracle.attention_probs();

  ASSERT_EQ(y_fused.size(), y_ref.size());
  for (int64_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_EQ(y_fused.data()[i], y_ref.data()[i]) << "output elt " << i;
  }
  for (size_t h = 0; h < probs_ref.size(); ++h) {
    for (int64_t i = 0; i < probs_ref[h].size(); ++i) {
      ASSERT_EQ(probs_fused[h].data()[i], probs_ref[h].data()[i])
          << "head " << h << " elt " << i;
    }
  }
  for (int64_t i = 0; i < dx_ref.size(); ++i) {
    ASSERT_EQ(dx_fused.data()[i], dx_ref.data()[i]) << "dx elt " << i;
  }
  for (size_t p = 0; p < params.size(); ++p) {
    for (int64_t i = 0; i < params[p]->grad.size(); ++i) {
      ASSERT_EQ(params[p]->grad.data()[i], ref_params[p]->grad.data()[i])
          << "param " << p << " elt " << i;
    }
  }
}

TEST(AttentionTest, ContextChangesOutput) {
  // The same token in different contexts must get different embeddings —
  // the paper's core argument for contextualized representations.
  util::Rng rng(7);
  MultiHeadSelfAttention attn("a", SmallConfig(), &rng);
  nn::Tensor context_a({3, 8});
  context_a.FillNormal(&rng, 1.0f);
  nn::Tensor context_b = context_a;
  // Perturb a *different* row (the context), keep row 0 identical.
  for (int64_t j = 0; j < 8; ++j) context_b.at(2, j) += 1.0f;

  nn::Tensor out_a = attn.Forward(context_a, nullptr);
  nn::Tensor out_b = attn.Forward(context_b, nullptr);
  double diff = 0.0;
  for (int64_t j = 0; j < 8; ++j) {
    diff += static_cast<double>(std::fabs(out_a.at(0, j) - out_b.at(0, j)));
  }
  EXPECT_GT(diff, 1e-4);
}

}  // namespace
}  // namespace doduo::transformer
