#include "doduo/core/model.h"

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "doduo/baselines/turl.h"
#include "doduo/nn/losses.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/optimizer.h"
#include "doduo/nn/quant.h"
#include "gtest/gtest.h"

namespace doduo::core {
namespace {

DoduoConfig SmallConfig() {
  DoduoConfig config;
  config.encoder.vocab_size = 60;
  config.encoder.max_positions = 64;
  config.encoder.hidden_dim = 16;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 32;
  config.encoder.num_layers = 1;
  config.encoder.dropout = 0.0f;
  config.serializer.max_total_tokens = 64;
  config.num_types = 5;
  config.num_relations = 4;
  return config;
}

table::SerializedTable MakeInput() {
  table::SerializedTable input;
  input.token_ids = {2, 10, 11, 2, 12, 13, 2, 14, 15, 3};
  input.cls_positions = {0, 3, 6};
  input.row_ids = {-1, 0, 1, -1, 0, 1, -1, 0, 1, -1};
  return input;
}

TEST(DoduoModelTest, NullRngDrawsNoInitialWeights) {
  // The construction LoadModelDir and ReplicaPool use: nothing is drawn,
  // every weight is zero and every LayerNorm gain one, and a dropout layer
  // that would need random draws refuses to train.
  DoduoConfig config = SmallConfig();
  config.encoder.dropout = 0.1f;
  DoduoModel model(config, nullptr);
  for (nn::Parameter* p : model.Parameters()) {
    const bool gain = p->name.ends_with(".gamma");
    for (int64_t i = 0; i < p->value.size(); ++i) {
      ASSERT_EQ(p->value.data()[i], gain ? 1.0f : 0.0f) << p->name;
    }
  }
  model.set_training(true);
  EXPECT_DEATH((void)model.ForwardTypes(MakeInput()), "needs an rng");
}

TEST(DoduoModelTest, TypeLogitsShape) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(1);
  DoduoModel model(config, &rng);
  const nn::Tensor& logits = model.ForwardTypes(MakeInput());
  EXPECT_EQ(logits.rows(), 3);  // one row per column
  EXPECT_EQ(logits.cols(), 5);
}

TEST(DoduoModelTest, RelationLogitsShape) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(2);
  DoduoModel model(config, &rng);
  const nn::Tensor& logits =
      model.ForwardRelations(MakeInput(), {{0, 1}, {0, 2}});
  EXPECT_EQ(logits.rows(), 2);
  EXPECT_EQ(logits.cols(), 4);
}

TEST(DoduoModelTest, NoRelationHeadWhenZeroRelations) {
  DoduoConfig config = SmallConfig();
  config.num_relations = 0;
  config.tasks = TaskSet::kTypesOnly;
  util::Rng rng(3);
  DoduoModel model(config, &rng);
  // Type path still works.
  EXPECT_EQ(model.ForwardTypes(MakeInput()).rows(), 3);
}

TEST(DoduoModelTest, TypeTrainingStepReducesLoss) {
  DoduoConfig config = SmallConfig();
  config.multi_label = false;
  util::Rng rng(4);
  DoduoModel model(config, &rng);
  // Training mode (dropout is 0): Backward needs the full forward.
  model.set_training(true);
  nn::AdamOptions adam_options;
  adam_options.learning_rate = 1e-2;
  nn::Adam adam(model.Parameters(), adam_options);

  const table::SerializedTable input = MakeInput();
  const std::vector<int> labels = {0, 3, 1};
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    const nn::Tensor& logits = model.ForwardTypes(input);
    nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    model.BackwardTypes(loss.grad_logits);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.3);
}

TEST(DoduoModelTest, RelationTrainingStepReducesLoss) {
  DoduoConfig config = SmallConfig();
  config.multi_label = false;
  util::Rng rng(5);
  DoduoModel model(config, &rng);
  // Training mode (dropout is 0): Backward needs the full forward.
  model.set_training(true);
  nn::AdamOptions adam_options;
  adam_options.learning_rate = 1e-2;
  nn::Adam adam(model.Parameters(), adam_options);

  const table::SerializedTable input = MakeInput();
  const std::vector<std::pair<int, int>> pairs = {{0, 1}, {0, 2}};
  const std::vector<int> labels = {2, 0};
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    const nn::Tensor& logits = model.ForwardRelations(input, pairs);
    nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    model.BackwardRelations(loss.grad_logits);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.3);
}

TEST(DoduoModelTest, ColumnEmbeddingsShapeAndDeterminism) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(6);
  DoduoModel model(config, &rng);
  model.set_training(false);
  nn::Tensor a = model.ColumnEmbeddings(MakeInput());
  nn::Tensor b = model.ColumnEmbeddings(MakeInput());
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 16);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(DoduoModelTest, ColumnAttentionIsColumnSquare) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(7);
  DoduoModel model(config, &rng);
  model.set_training(false);
  nn::Tensor attention = model.ColumnAttention(MakeInput());
  EXPECT_EQ(attention.rows(), 3);
  EXPECT_EQ(attention.cols(), 3);
  for (int64_t i = 0; i < attention.size(); ++i) {
    EXPECT_GE(attention.data()[i], 0.0f);
  }
}

TEST(DoduoModelTest, MaskBuilderIsApplied) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(8);
  DoduoModel model(config, &rng);
  model.set_training(false);
  const table::SerializedTable input = MakeInput();
  const nn::Tensor unmasked = model.ForwardTypes(input);

  // A mask that isolates every position: output must change.
  model.set_mask_builder([](const table::SerializedTable& serialized) {
    const int64_t s = static_cast<int64_t>(serialized.token_ids.size());
    transformer::AttentionMask mask({s, s});
    for (int64_t i = 0; i < s; ++i) {
      for (int64_t j = 0; j < s; ++j) {
        if (i != j) mask.at(i, j) = transformer::kAttentionMaskValue;
      }
    }
    return mask;
  });
  const nn::Tensor masked = model.ForwardTypes(input);
  double diff = 0.0;
  for (int64_t i = 0; i < masked.size(); ++i) {
    diff += static_cast<double>(std::abs(masked.data()[i] - unmasked.data()[i]));
  }
  EXPECT_GT(diff, 1e-3);

  model.set_mask_builder(nullptr);
  const nn::Tensor restored = model.ForwardTypes(input);
  for (int64_t i = 0; i < restored.size(); ++i) {
    EXPECT_FLOAT_EQ(restored.data()[i], unmasked.data()[i]);
  }
}

TEST(DoduoModelTest, SnapshotRestoreRoundTrip) {
  DoduoConfig config = SmallConfig();
  util::Rng rng(9);
  DoduoModel model(config, &rng);
  model.set_training(false);
  const table::SerializedTable input = MakeInput();
  const nn::Tensor before = model.ForwardTypes(input);
  auto snapshot = model.SnapshotWeights();

  // Perturb all parameters.
  for (nn::Parameter* p : model.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) p->value.data()[i] += 0.1f;
  }
  const nn::Tensor perturbed = model.ForwardTypes(input);
  double diff = 0.0;
  for (int64_t i = 0; i < perturbed.size(); ++i) {
    diff += static_cast<double>(std::abs(perturbed.data()[i] - before.data()[i]));
  }
  EXPECT_GT(diff, 1e-3);

  model.RestoreWeights(snapshot);
  const nn::Tensor restored = model.ForwardTypes(input);
  for (int64_t i = 0; i < restored.size(); ++i) {
    EXPECT_FLOAT_EQ(restored.data()[i], before.data()[i]);
  }
}

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

void ExpectSameBits(const nn::Tensor& want, const nn::Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(want.data()[i]), Bits(got.data()[i]))
        << what << " element " << i << ": want " << want.data()[i]
        << " got " << got.data()[i];
  }
}

// Eval mode runs the kept-rows forward; training mode of a dropout-0 model
// runs the full forward. Every eval-mode output must equal the full
// forward's, bit for bit: fp32 and int8 (first parameter), full attention
// and the TURL visibility mask (second).
class KeptRowsModelTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  void SetUp() override { nn::SetQuantEnabled(std::get<0>(GetParam())); }
  void TearDown() override { nn::SetQuantEnabled(quant_was_); }
  const bool quant_was_ = nn::QuantEnabled();
};

TEST_P(KeptRowsModelTest, EvalOutputsMatchFullForwardBitForBit) {
  DoduoConfig config = SmallConfig();
  config.encoder.num_layers = 2;
  util::Rng rng(12);
  DoduoModel model(config, &rng);
  if (std::get<1>(GetParam())) {
    model.set_mask_builder(baselines::MakeTurlVisibilityMaskBuilder());
  }
  const table::SerializedTable input = MakeInput();
  const std::vector<std::pair<int, int>> pairs = {{0, 1}, {0, 2}, {2, 1}};

  model.set_training(true);
  const nn::Tensor want_types = model.ForwardTypes(input);
  const nn::Tensor want_relations = model.ForwardRelations(input, pairs);
  // ColumnEmbeddings and ColumnAttention as they read the full forward:
  // the [CLS] rows of the hidden states and of the last layer's probs.
  transformer::AttentionMask mask;
  if (model.mask_builder()) mask = model.mask_builder()(input);
  const nn::Tensor& hidden = model.encoder()->Forward(
      input.token_ids, model.mask_builder() ? &mask : nullptr);
  const int64_t n = static_cast<int64_t>(input.cls_positions.size());
  nn::Tensor want_embeddings({n, hidden.cols()});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < hidden.cols(); ++c) {
      want_embeddings.at(i, c) = hidden.at(input.cls_positions[i], c);
    }
  }
  const int last = model.encoder()->num_layers() - 1;
  const std::vector<nn::Tensor>& head_probs =
      model.encoder()->attention_probs(last);
  nn::Tensor want_attention({n, n});
  for (const nn::Tensor& probs : head_probs) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want_attention.at(i, j) +=
            probs.at(input.cls_positions[i], input.cls_positions[j]);
      }
    }
  }
  nn::Scale(&want_attention, 1.0f / static_cast<float>(head_probs.size()));

  model.set_training(false);
  ExpectSameBits(want_types, model.ForwardTypes(input), "ForwardTypes");
  ExpectSameBits(want_relations, model.ForwardRelations(input, pairs),
                 "ForwardRelations");
  ExpectSameBits(want_embeddings, model.ColumnEmbeddings(input),
                 "ColumnEmbeddings");
  ExpectSameBits(want_attention, model.ColumnAttention(input),
                 "ColumnAttention");
  // The eval forward was the kept-rows one: one probs row per column.
  EXPECT_EQ(model.encoder()->attention_probs(last)[0].rows(), n);
}

INSTANTIATE_TEST_SUITE_P(
    QuantAndMask, KeptRowsModelTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& param_info) {
      return std::string(std::get<0>(param_info.param) ? "Int8" : "Fp32") +
             (std::get<1>(param_info.param) ? "Turl" : "Full");
    });

TEST(KeptRowsModelDeathTest, BackwardAfterEvalForwardDies) {
  util::Rng rng(13);
  DoduoModel model(SmallConfig(), &rng);
  model.set_training(false);
  const nn::Tensor& logits = model.ForwardTypes(MakeInput());
  const nn::Tensor grad(logits.shape());
  EXPECT_DEATH(model.BackwardTypes(grad), "kept-rows forward");
}

TEST(KeptRowsModelDeathTest, ColumnReadersRefuseTrainingMode) {
  util::Rng rng(14);
  DoduoModel model(SmallConfig(), &rng);
  model.set_training(true);
  EXPECT_DEATH((void)model.ColumnEmbeddings(MakeInput()), "eval mode only");
  EXPECT_DEATH((void)model.ColumnAttention(MakeInput()), "eval mode only");
}

}  // namespace
}  // namespace doduo::core
