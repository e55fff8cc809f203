// Steady-state allocation contract (DESIGN.md §9): after one warm-up
// iteration, encoder Forward — and Forward + Backward — must perform zero
// Tensor heap allocations, both where attention runs its blocked per-head
// kernel (head_dim a multiple of 8) and where it runs the view GEMMs, and
// encoder Forward on the int8 path.
// Requires the DODUO_COUNT_ALLOCS build (the default); without it these
// tests compile to skips.

#include "doduo/nn/ops.h"
#include "doduo/nn/quant.h"
#include "doduo/transformer/encoder.h"
#include "gtest/gtest.h"

namespace doduo::transformer {
namespace {

// head_dim 8 by default; 6 keeps attention on the view GEMMs.
TransformerConfig SmallConfig(int head_dim = 8) {
  TransformerConfig config;
  config.vocab_size = 50;
  config.hidden_dim = 2 * head_dim;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.num_layers = 2;
  config.dropout = 0.0f;
  return config;
}

#ifndef DODUO_COUNT_ALLOCS

TEST(ZeroAllocTest, RequiresCountAllocsBuild) {
  GTEST_SKIP() << "built without DODUO_COUNT_ALLOCS";
}

#else

class ZeroAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(ZeroAllocTest, EncoderForwardIsAllocationFreeAtSteadyState) {
  util::Rng rng(1);
  const TransformerConfig config = SmallConfig(GetParam() ? 8 : 6);
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({12, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);

  encoder.Forward(x, nullptr);  // warm-up sizes every buffer
  nn::ResetTensorAllocCount();
  encoder.Forward(x, nullptr);
  EXPECT_EQ(nn::TensorAllocCount(), 0u);
}

TEST_P(ZeroAllocTest, EncoderForwardBackwardIsAllocationFreeAtSteadyState) {
  util::Rng rng(2);
  const TransformerConfig config = SmallConfig(GetParam() ? 8 : 6);
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({12, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  nn::Tensor dy({12, config.hidden_dim});
  dy.FillNormal(&rng, 1.0f);

  encoder.Forward(x, nullptr);
  encoder.Backward(dy);
  nn::ResetTensorAllocCount();
  encoder.Forward(x, nullptr);
  encoder.Backward(dy);
  EXPECT_EQ(nn::TensorAllocCount(), 0u);
}

TEST_P(ZeroAllocTest, MaskedForwardIsAllocationFreeAtSteadyState) {
  util::Rng rng(3);
  const TransformerConfig config = SmallConfig(GetParam() ? 8 : 6);
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({8, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  AttentionMask mask({8, 8});
  mask.at(0, 5) = kAttentionMaskValue;

  encoder.Forward(x, &mask);
  nn::ResetTensorAllocCount();
  encoder.Forward(x, &mask);
  EXPECT_EQ(nn::TensorAllocCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Paths, ZeroAllocTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "fused" : "view";
                         });

TEST(ZeroAllocQuantTest, Int8EncoderForwardIsAllocationFreeAtSteadyState) {
  // The int8 path is part of the contract too: the lazy weight panels and
  // the per-thread activation scratch are built by the warm-up, and the
  // scratch is counted like Tensor storage, so a per-call buffer shows up.
  util::Rng rng(4);
  Encoder encoder("enc", SmallConfig(), &rng);
  encoder.set_training(false);
  nn::Tensor x({12, 16});
  x.FillNormal(&rng, 1.0f);

  nn::SetQuantEnabled(true);
  encoder.Forward(x, nullptr);
  nn::ResetTensorAllocCount();
  encoder.Forward(x, nullptr);
  const uint64_t allocs = nn::TensorAllocCount();
  nn::SetQuantEnabled(false);
  EXPECT_EQ(allocs, 0u);
}

#endif  // DODUO_COUNT_ALLOCS

}  // namespace
}  // namespace doduo::transformer
