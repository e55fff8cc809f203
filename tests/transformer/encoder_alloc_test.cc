// The zero-allocation contract as DESIGN §9 states it: a steady-state
// encoder forward on one thread makes no heap allocation at all, not only
// no Tensor buffer allocation (which TensorAllocCount sees). This binary
// replaces the global operator new with a counting one
// (testing/counting_new.cc), so the replacement cannot leak into other
// tests. The model has the benchmark's shape: 2 layers, hidden 64, 4
// heads, FFN 256, 76 tokens.

#include "doduo/transformer/encoder.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"
#include "testing/counting_new.h"

namespace doduo::transformer {
namespace {

constexpr int64_t kSeq = 76;

TransformerConfig BenchConfig() {
  TransformerConfig config;
  config.hidden_dim = 64;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.num_layers = 2;
  config.max_positions = kSeq;
  config.dropout = 0.0f;
  return config;
}

class ZeroAllocTest : public ::testing::Test {
 protected:
  void SetUp() override { util::SetComputeThreads(1); }
};

TEST_F(ZeroAllocTest, OneThreadEncoderForwardCallsNoOperatorNew) {
  util::Rng rng(5);
  const TransformerConfig config = BenchConfig();
  Encoder encoder("enc", config, &rng);
  encoder.set_training(false);
  nn::Tensor x({kSeq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  AttentionMask mask({kSeq, kSeq});
  mask.at(0, 5) = kAttentionMaskValue;

  // The first forward sizes every buffer, which the counter must see.
  const size_t cold = doduo::testing::OperatorNewCalls();
  encoder.Forward(x, nullptr);
  EXPECT_GT(doduo::testing::OperatorNewCalls(), cold);

  for (const AttentionMask* m : {static_cast<const AttentionMask*>(nullptr),
                                 static_cast<const AttentionMask*>(&mask)}) {
    encoder.Forward(x, m);
    const size_t before = doduo::testing::OperatorNewCalls();
    encoder.Forward(x, m);
    EXPECT_EQ(doduo::testing::OperatorNewCalls() - before, 0u)
        << (m != nullptr ? "masked" : "unmasked");
  }
}

}  // namespace
}  // namespace doduo::transformer
