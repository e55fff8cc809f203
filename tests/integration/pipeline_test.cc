// Cross-module integration test: the complete pipeline the experiment
// binaries run — knowledge base → corpus → WordPiece vocabulary → MLM
// pre-training → multi-task fine-tuning → annotation → column clustering →
// LM probing — at miniature scale, asserting the contracts between the
// modules rather than any single module's behavior.

#include "doduo/cluster/kmeans.h"
#include "doduo/cluster/metrics.h"
#include "doduo/core/annotator.h"
#include "doduo/experiments/runners.h"
#include "doduo/probe/prober.h"
#include "doduo/synth/case_study.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    experiments::EnvOptions options;
    options.mode = experiments::BenchmarkMode::kWikiTable;
    options.num_tables = 220;
    options.vocab_size = 1000;
    options.hidden_dim = 32;
    options.num_layers = 1;
    options.num_heads = 2;
    options.ffn_dim = 64;
    options.max_positions = 96;
    options.pretrain_epochs = 3;
    options.corpus_fact_mentions = 1;
    options.corpus_list_mentions = 10;
    options.use_cache = false;
    options.seed = 31;
    env_ = std::make_unique<experiments::Env>(options);

    experiments::DoduoVariant variant;
    variant.epochs = 18;
    run_ = std::make_unique<experiments::DoduoRun>(
        experiments::RunDoduo(env_.get(), variant));
  }

  std::unique_ptr<experiments::Env> env_;
  std::unique_ptr<experiments::DoduoRun> run_;
};

TEST_F(PipelineTest, FineTunedModelBeatsChanceOnBothTasks) {
  const int types = env_->dataset().type_vocab.size();
  const int relations = env_->dataset().relation_vocab.size();
  EXPECT_GT(run_->types.micro.f1, 3.0 / types);
  ASSERT_TRUE(run_->has_relations);
  EXPECT_GT(run_->relations.micro.f1, 2.0 / relations);
}

TEST_F(PipelineTest, AnnotatorAgreesWithTrainerEvaluation) {
  // Annotator predictions on a test table must be label names that decode
  // to the same ids the trainer's evaluation produced.
  core::Annotator annotator(run_->model.get(), run_->serializer.get(),
                            &env_->dataset().type_vocab,
                            &env_->dataset().relation_vocab);
  const auto& annotated = env_->dataset().tables[env_->splits().test[0]];
  const auto names = annotator.AnnotateTypes(annotated.table).value();
  ASSERT_EQ(names.size(),
            static_cast<size_t>(annotated.table.num_columns()));
  for (const auto& column_names : names) {
    for (const auto& name : column_names) {
      EXPECT_GE(env_->dataset().type_vocab.Id(name), 0) << name;
    }
  }
}

TEST_F(PipelineTest, EmbeddingsClusterCaseStudyAboveChance) {
  core::Annotator annotator(run_->model.get(), run_->serializer.get(),
                            &env_->dataset().type_vocab,
                            &env_->dataset().relation_vocab);
  const auto data = synth::BuildCaseStudy(99);
  const int hidden = run_->model->config().encoder.hidden_dim;
  nn::Tensor embeddings({data.num_columns(), hidden});
  int flat = 0;
  for (const auto& table : data.tables) {
    const nn::Tensor column_embeddings =
        annotator.ColumnEmbeddings(table).value();
    for (int c = 0; c < table.num_columns(); ++c, ++flat) {
      std::copy(column_embeddings.row(c), column_embeddings.row(c) + hidden,
                embeddings.row(flat));
    }
  }
  cluster::NormalizeRows(&embeddings);
  cluster::KMeans::Options kmeans_options;
  kmeans_options.k = static_cast<int>(data.group_names.size());
  cluster::KMeans kmeans(kmeans_options);
  const auto clusters = kmeans.Cluster(embeddings);
  const auto scores =
      cluster::ScoreClustering(clusters, data.ground_truth);
  // Even an out-of-domain mini model must beat random clustering by a
  // clear margin (random V-measure for 15 groups over 50 items ≈ 0.45
  // due to small-sample effects; structure should push past it).
  EXPECT_GT(scores.v_measure, 0.5);
}

TEST_F(PipelineTest, PretrainedLmKnowsMoreThanChanceInProbing) {
  probe::LmProber prober(env_->PretrainedLm(), &env_->tokenizer());
  util::Rng rng(5);
  const auto rows = prober.ProbeTypes(env_->kb(), /*samples=*/3, &rng);
  ASSERT_EQ(rows.size(), static_cast<size_t>(env_->kb().num_types()));
  const double chance = (env_->kb().num_types() + 1) / 2.0;
  // Mean rank across types must beat chance; the best types must beat it
  // clearly.
  double mean_rank = 0.0;
  for (const auto& row : rows) mean_rank += row.avg_rank;
  mean_rank /= static_cast<double>(rows.size());
  EXPECT_LT(mean_rank, chance);
  EXPECT_LT(rows.front().avg_rank, chance * 0.5);
}

TEST_F(PipelineTest, BatchAnnotationMatchesSequentialLoop) {
  // The batched API fans tables out across model replicas on the compute
  // pool; its results must equal five sequential scalar calls exactly.
  core::Annotator annotator(run_->model.get(), run_->serializer.get(),
                            &env_->dataset().type_vocab,
                            &env_->dataset().relation_vocab);
  std::vector<table::Table> tables;
  for (int t = 0; t < 5; ++t) {
    tables.push_back(
        env_->dataset().tables[env_->splits().test[static_cast<size_t>(t)]]
            .table);
  }

  util::SetComputeThreads(4);
  const auto batch_types = annotator.AnnotateTypesBatch(tables).value();
  util::SetComputeThreads(1);

  ASSERT_EQ(batch_types.size(), tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(batch_types[t], annotator.AnnotateTypes(tables[t]).value())
        << "table " << t;
  }
}

TEST_F(PipelineTest, ColumnAttentionMatchesColumnCount) {
  const auto& annotated = env_->dataset().tables[env_->splits().test[1]];
  const auto serialized =
      run_->serializer->SerializeTable(annotated.table).value();
  const nn::Tensor attention = run_->model->ColumnAttention(serialized);
  EXPECT_EQ(attention.rows(), annotated.table.num_columns());
  EXPECT_EQ(attention.cols(), annotated.table.num_columns());
}

}  // namespace
}  // namespace doduo
