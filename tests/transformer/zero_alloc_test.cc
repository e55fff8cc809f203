// Steady-state allocation contract (DESIGN.md §9): after one warm-up
// iteration, a one-thread encoder Forward — and Forward + Backward — calls
// operator new zero times, both where attention runs its blocked per-head
// kernel (head_dim a multiple of 8) and where it runs the view GEMMs, and
// so does encoder Forward on the int8 path. So does a forward whose
// kernels shard across a two-thread pool, and one on a thread inside
// ScopedInline (a replica thread), whose kernels stay serial. Built into
// encoder_alloc_test, which replaces the global operator new
// (testing/counting_new.cc).

#include "doduo/nn/dispatch.h"
#include "doduo/nn/quant.h"
#include "doduo/transformer/encoder.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"
#include "testing/counting_new.h"

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

// Steady-state operator new calls of `run`, after one warm-up call.
template <typename Run>
size_t SteadyStateAllocs(const Run& run) {
  run();
  const size_t before = doduo::testing::OperatorNewCalls();
  run();
  return doduo::testing::OperatorNewCalls() - before;
}

class ZeroAllocTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { util::SetComputeThreads(1); }
};

TEST_P(ZeroAllocTest, EncoderForwardIsAllocationFreeAtSteadyState) {
  util::Rng rng(1);
  const TransformerConfig config = SmallConfig(GetParam() ? 8 : 6);
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({12, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);

  EXPECT_EQ(SteadyStateAllocs([&] { encoder.Forward(x, nullptr); }), 0u);
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

  EXPECT_EQ(SteadyStateAllocs([&] {
              encoder.Forward(x, nullptr);
              encoder.Backward(dy);
            }),
            0u);
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

  EXPECT_EQ(SteadyStateAllocs([&] { encoder.Forward(x, &mask); }), 0u);
}

INSTANTIATE_TEST_SUITE_P(Paths, ZeroAllocTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "fused" : "view";
                         });

TEST(ZeroAllocQuantTest, Int8EncoderForwardIsAllocationFreeAtSteadyState) {
  // The int8 path is part of the contract too: the lazy weight panels and
  // the per-thread activation scratch are built by the warm-up.
  util::SetComputeThreads(1);
  util::Rng rng(4);
  Encoder encoder("enc", SmallConfig(), &rng);
  encoder.set_training(false);
  nn::Tensor x({12, 16});
  x.FillNormal(&rng, 1.0f);

  nn::SetQuantEnabled(true);
  const size_t allocs =
      SteadyStateAllocs([&] { encoder.Forward(x, nullptr); });
  nn::SetQuantEnabled(false);
  EXPECT_EQ(allocs, 0u);
}

// The benchmark's shape (hidden 64, FFN 256, 76 tokens), where the
// Linears cross the sharding volume.
constexpr int64_t kShardedSeq = 76;

TransformerConfig ShardedConfig() {
  TransformerConfig config;
  config.hidden_dim = 64;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.num_layers = 2;
  config.max_positions = kShardedSeq;
  config.dropout = 0.0f;
  return config;
}

class ZeroAllocShardedTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    util::SetComputeThreads(2);
    nn::SetQuantEnabled(GetParam());
  }
  void TearDown() override {
    nn::SetQuantEnabled(false);
    util::SetComputeThreads(1);
  }
};

TEST_P(ZeroAllocShardedTest, TwoThreadPoolForwardIsAllocationFree) {
  util::Rng rng(7);
  const TransformerConfig config = ShardedConfig();
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({kShardedSeq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  // The FFN-out GEMM shards, so the pool queues chunks every forward.
  ASSERT_TRUE(nn::ShouldParallelize(kShardedSeq, config.ffn_dim,
                                    config.hidden_dim));

  EXPECT_EQ(SteadyStateAllocs([&] { encoder.Forward(x, nullptr); }), 0u);
}

TEST_P(ZeroAllocShardedTest, ScopedInlineForwardIsAllocationFree) {
  util::Rng rng(8);
  const TransformerConfig config = ShardedConfig();
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({kShardedSeq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);

  const util::ThreadPool::ScopedInline inline_scope;
  EXPECT_FALSE(nn::ShouldParallelize(kShardedSeq, config.ffn_dim,
                                     config.hidden_dim));
  EXPECT_EQ(SteadyStateAllocs([&] { encoder.Forward(x, nullptr); }), 0u);
}

INSTANTIATE_TEST_SUITE_P(Paths, ZeroAllocShardedTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "int8" : "fp32";
                         });

}  // namespace
}  // namespace doduo::transformer
