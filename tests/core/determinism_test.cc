// Reproducibility guarantee: identical seeds produce bit-identical
// datasets, training runs, and predictions — the property every
// experiment binary relies on — including across compute-pool sizes
// (the row-sharded kernels keep per-element FP operation order fixed).

#include <cstdlib>

#include "doduo/core/annotator.h"
#include "doduo/core/trainer.h"
#include "doduo/nn/quant.h"
#include "doduo/synth/table_generator.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::core {
namespace {

struct PipelineResult {
  std::vector<double> valid_curve;
  double test_f1 = 0.0;
  std::vector<float> first_weights;
  std::vector<std::vector<std::string>> annotations;
};

// `int8` annotates through the quantized path (training stays fp32).
PipelineResult RunPipeline(uint64_t seed, bool int8 = false) {
  synth::KnowledgeBase kb = synth::KnowledgeBase::BuildWikiTableKb(seed);
  synth::TableGeneratorOptions generator_options;
  generator_options.num_tables = 80;
  synth::TableGenerator generator(&kb, generator_options);
  util::Rng rng(seed + 1);
  auto dataset = generator.Generate(&rng);
  auto splits = table::SplitDataset(dataset.tables.size(), 0.7, 0.15, &rng);

  std::vector<std::string> lines;
  for (const auto& annotated : dataset.tables) {
    for (const auto& column : annotated.table.columns()) {
      for (const auto& value : column.values) lines.push_back(value);
    }
  }
  text::WordPieceTrainer wordpiece({.vocab_size = 600,
                                    .min_pair_frequency = 2});
  text::Vocab vocab = wordpiece.TrainFromLines(lines);
  text::WordPieceTokenizer tokenizer(&vocab);

  DoduoConfig config;
  config.encoder.vocab_size = vocab.size();
  config.encoder.max_positions = 96;
  config.encoder.hidden_dim = 16;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 32;
  config.encoder.num_layers = 1;
  config.encoder.dropout = 0.1f;  // dropout too must be deterministic
  config.serializer.max_total_tokens = 96;
  config.num_types = dataset.type_vocab.size();
  config.num_relations = dataset.relation_vocab.size();
  config.epochs = 3;
  config.seed = seed + 2;

  util::Rng model_rng(config.seed);
  DoduoModel model(config, &model_rng);
  table::TableSerializer serializer(&tokenizer, config.serializer);
  Trainer trainer(&model, &serializer);
  const TrainHistory history = trainer.Train(dataset, splits);

  PipelineResult result;
  result.valid_curve = history.valid_type_f1;
  result.test_f1 = trainer.EvaluateTypes(dataset, splits.test).micro.f1;
  const nn::Tensor& weights = model.Parameters()[0]->value;
  result.first_weights.assign(weights.data(),
                              weights.data() + weights.size());
  const Annotator annotator(&model, &serializer, &dataset.type_vocab,
                            &dataset.relation_vocab);
  nn::SetQuantEnabled(int8);
  result.annotations =
      annotator.AnnotateTypes(dataset.tables[splits.test[0]].table).value();
  nn::SetQuantEnabled(false);
  return result;
}

void ExpectIdenticalResults(const PipelineResult& a,
                            const PipelineResult& b) {
  ASSERT_EQ(a.valid_curve.size(), b.valid_curve.size());
  for (size_t i = 0; i < a.valid_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.valid_curve[i], b.valid_curve[i]);
  }
  EXPECT_DOUBLE_EQ(a.test_f1, b.test_f1);
  ASSERT_EQ(a.first_weights.size(), b.first_weights.size());
  for (size_t i = 0; i < a.first_weights.size(); ++i) {
    ASSERT_EQ(a.first_weights[i], b.first_weights[i]) << i;
  }
  EXPECT_EQ(a.annotations, b.annotations);
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  const PipelineResult a = RunPipeline(101);
  const PipelineResult b = RunPipeline(101);
  ExpectIdenticalResults(a, b);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeResults) {
  // Training and annotation must be bit-identical at 1 vs 4 threads. The
  // threshold override forces even this miniature model's GEMMs through
  // the sharded parallel path (cached at first kernel use, which happens
  // inside RunPipeline below).
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  util::SetComputeThreads(1);
  const PipelineResult serial = RunPipeline(101);
  util::SetComputeThreads(4);
  const PipelineResult parallel = RunPipeline(101);
  util::SetComputeThreads(1);
  ExpectIdenticalResults(serial, parallel);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeInt8Results) {
  // The same on the int8 path, whichever kernel this host dispatches.
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  util::SetComputeThreads(1);
  const PipelineResult serial = RunPipeline(101, /*int8=*/true);
  util::SetComputeThreads(4);
  const PipelineResult parallel = RunPipeline(101, /*int8=*/true);
  util::SetComputeThreads(1);
  ExpectIdenticalResults(serial, parallel);
}

TEST(DeterminismTest, DifferentSeedsDifferentRuns) {
  const PipelineResult a = RunPipeline(101);
  const PipelineResult b = RunPipeline(202);
  double diff = 0.0;
  for (size_t i = 0;
       i < std::min(a.first_weights.size(), b.first_weights.size()); ++i) {
    diff += static_cast<double>(
        std::abs(a.first_weights[i] - b.first_weights[i]));
  }
  EXPECT_GT(diff, 1e-3);
}

}  // namespace
}  // namespace doduo::core
