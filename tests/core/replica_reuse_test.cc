// Batch calls keep their fan-out replicas (DESIGN §7): a second batch call
// on the same weights builds no ReplicaPool, and anything that moves the
// weights (an optimizer step, RestoreWeights) or the per-call model
// settings (mask builder, calibration temperature) between calls is
// honoured. Every case compares the batch outcomes against a loop of
// single-table calls on a fresh annotator over the same model. A thread
// that holds a replica keeps its kernels serial.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/replica_pool.h"
#include "doduo/nn/optimizer.h"
#include "doduo/nn/parameter.h"
#include "doduo/transformer/attention.h"
#include "doduo/util/metrics.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::core {
namespace {

using Outcomes = std::vector<std::vector<ColumnOutcome>>;

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
  config.num_relations = 0;
  config.tasks = TaskSet::kTypesOnly;
  return config;
}

uint64_t PoolBuilds() {
  return util::GetCounter("replica_pool.builds_total")->value();
}

class ReplicaReuseTest : public ::testing::Test {
 protected:
  ReplicaReuseTest() : config_(SmallConfig()) {
    for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
      vocab_.AddToken(word);
    }
    for (int i = 0; i < config_.num_types; ++i) {
      type_vocab_.AddLabel("type" + std::to_string(i));
    }
    util::Rng rng(3);
    model_ = std::make_unique<DoduoModel>(config_, &rng);
    model_->set_training(false);
    tokenizer_ = std::make_unique<text::WordPieceTokenizer>(&vocab_);
    serializer_ = std::make_unique<table::TableSerializer>(
        tokenizer_.get(), config_.serializer);
    annotator_ = std::make_unique<Annotator>(model_.get(), serializer_.get(),
                                             &type_vocab_,
                                             /*relation_vocab=*/nullptr);
    static const char* const kWords[] = {"alpha", "beta", "gamma", "delta"};
    for (int t = 0; t < 5; ++t) {
      table::Table table("t" + std::to_string(t));
      for (int c = 0; c < 2 + t % 3; ++c) {
        table.AddColumn({"c" + std::to_string(c),
                         {kWords[(t + c) % 4], kWords[(t * c + 1) % 4]}});
      }
      tables_.push_back(std::move(table));
    }
  }

  // A fixed fan-out width whatever DODUO_NUM_THREADS says, so the build
  // counts below are exact: 5 tables on 3 threads is 3 replicas.
  void SetUp() override {
    threads_before_ = util::ComputeThreads();
    util::SetComputeThreads(3);
  }
  void TearDown() override { util::SetComputeThreads(threads_before_); }

  /// The reference: one AnnotateTypesRobust call per table, on a fresh
  /// annotator (no fan-out, no kept replicas).
  Outcomes SingleCallLoop(size_t count) const {
    const Annotator fresh(model_.get(), serializer_.get(), &type_vocab_,
                          nullptr);
    Outcomes outcomes;
    for (size_t t = 0; t < count; ++t) {
      outcomes.push_back(fresh.AnnotateTypesRobust(tables_[t]));
    }
    return outcomes;
  }

  Outcomes Batch(const Annotator& annotator, size_t count) const {
    return annotator.AnnotateTypesRobustBatch(
        std::span<const table::Table>(tables_).first(count));
  }

  static void ExpectSame(const Outcomes& got, const Outcomes& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < want.size(); ++t) {
      ASSERT_EQ(got[t].size(), want[t].size()) << "table " << t;
      for (size_t c = 0; c < want[t].size(); ++c) {
        EXPECT_EQ(got[t][c].labels, want[t][c].labels) << t << "/" << c;
        EXPECT_EQ(got[t][c].confidence, want[t][c].confidence)
            << t << "/" << c;
        EXPECT_EQ(got[t][c].skipped_reason, want[t][c].skipped_reason);
        EXPECT_EQ(got[t][c].abstained, want[t][c].abstained);
      }
    }
  }

  /// True when some confidence differs: the change under test is visible
  /// in the outcomes, so matching the reference afterwards means something.
  static bool AnyConfidenceDiffers(const Outcomes& a, const Outcomes& b) {
    for (size_t t = 0; t < a.size(); ++t) {
      for (size_t c = 0; c < a[t].size(); ++c) {
        if (a[t][c].confidence != b[t][c].confidence) return true;
      }
    }
    return false;
  }

  DoduoConfig config_;
  text::Vocab vocab_;
  table::LabelVocab type_vocab_;
  std::unique_ptr<DoduoModel> model_;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer_;
  std::unique_ptr<table::TableSerializer> serializer_;
  std::unique_ptr<Annotator> annotator_;
  std::vector<table::Table> tables_;
  int threads_before_ = 1;
};

TEST_F(ReplicaReuseTest, TwoBatchCallsBuildOnePool) {
  const uint64_t before = PoolBuilds();
  const Outcomes first = Batch(*annotator_, tables_.size());
  const Outcomes second = Batch(*annotator_, tables_.size());
  EXPECT_EQ(PoolBuilds() - before, 1u);
  const Outcomes want = SingleCallLoop(tables_.size());
  ExpectSame(first, want);
  ExpectSame(second, want);
}

TEST_F(ReplicaReuseTest, CopiesAndSmallerBatchesShareThePool) {
  const uint64_t before = PoolBuilds();
  (void)Batch(*annotator_, tables_.size());
  // The copy is the point: copies of an annotator share its replicas.
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const Annotator copy = *annotator_;
  // Two tables want two replicas; the kept pool of three serves them.
  const Outcomes small = Batch(copy, 2);
  EXPECT_EQ(PoolBuilds() - before, 1u);
  ExpectSame(small, SingleCallLoop(2));
}

TEST_F(ReplicaReuseTest, OptimizerStepForcesRebuild) {
  const uint64_t before = PoolBuilds();
  const Outcomes old_weights = Batch(*annotator_, tables_.size());

  const nn::ParameterList params = model_->Parameters();
  for (nn::Parameter* p : params) {
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      p->grad.data()[i] = (i % 3 == 0) ? 1.0f : -0.5f;
    }
  }
  nn::AdamOptions options;
  options.learning_rate = 0.05;
  nn::Adam adam(params, options);
  adam.Step();

  const Outcomes stepped = Batch(*annotator_, tables_.size());
  EXPECT_EQ(PoolBuilds() - before, 2u);
  const Outcomes want = SingleCallLoop(tables_.size());
  ASSERT_TRUE(AnyConfidenceDiffers(want, old_weights));
  ExpectSame(stepped, want);
}

TEST_F(ReplicaReuseTest, RestoreWeightsForcesRebuild) {
  std::vector<nn::Tensor> original = model_->SnapshotWeights();
  const uint64_t before = PoolBuilds();
  const Outcomes old_weights = Batch(*annotator_, tables_.size());

  std::vector<nn::Tensor> perturbed = original;
  for (nn::Tensor& tensor : perturbed) {
    for (int64_t i = 0; i < tensor.size(); ++i) {
      tensor.data()[i] = tensor.data()[i] * 1.5f + 0.01f;
    }
  }
  model_->RestoreWeights(perturbed);
  const Outcomes restored = Batch(*annotator_, tables_.size());
  EXPECT_EQ(PoolBuilds() - before, 2u);
  const Outcomes want = SingleCallLoop(tables_.size());
  ASSERT_TRUE(AnyConfidenceDiffers(want, old_weights));
  ExpectSame(restored, want);

  // Back to the original weights: a third pool, equal to the first call.
  model_->RestoreWeights(original);
  ExpectSame(Batch(*annotator_, tables_.size()), old_weights);
  EXPECT_EQ(PoolBuilds() - before, 3u);
}

TEST_F(ReplicaReuseTest, MaskBuilderChangeIsHonouredWithoutRebuild) {
  const uint64_t before = PoolBuilds();
  const Outcomes full_attention = Batch(*annotator_, tables_.size());

  // Every position attends only to itself.
  model_->set_mask_builder([](const table::SerializedTable& serialized) {
    const int64_t s = static_cast<int64_t>(serialized.token_ids.size());
    transformer::AttentionMask mask({s, s});
    for (int64_t i = 0; i < s; ++i) {
      for (int64_t j = 0; j < s; ++j) {
        if (i != j) mask.at(i, j) = transformer::kAttentionMaskValue;
      }
    }
    return mask;
  });
  const Outcomes masked = Batch(*annotator_, tables_.size());
  const Outcomes want = SingleCallLoop(tables_.size());
  ASSERT_TRUE(AnyConfidenceDiffers(want, full_attention));
  ExpectSame(masked, want);

  model_->set_mask_builder(nullptr);
  ExpectSame(Batch(*annotator_, tables_.size()), full_attention);
  EXPECT_EQ(PoolBuilds() - before, 1u);
}

TEST_F(ReplicaReuseTest, CalibrationTemperatureChangeIsHonoured) {
  const Outcomes before = Batch(*annotator_, tables_.size());
  model_->set_calibration_temperature(3.0);
  const Outcomes after = Batch(*annotator_, tables_.size());
  const Outcomes want = SingleCallLoop(tables_.size());
  ASSERT_TRUE(AnyConfidenceDiffers(want, before));
  ExpectSame(after, want);
}

TEST_F(ReplicaReuseTest, ScopedUseKeepsTheHoldingThreadSerial) {
  ReplicaPool pool(model_.get(), serializer_.get(), &type_vocab_, nullptr, 2);
  ASSERT_FALSE(util::ThreadPool::RunsInline());
  {
    const ReplicaPool::ScopedUse use(&pool, 0);
    EXPECT_TRUE(util::ThreadPool::RunsInline());
  }
  EXPECT_FALSE(util::ThreadPool::RunsInline());
}

}  // namespace
}  // namespace doduo::core
