// Malformed-input coverage for the Annotator surface (DESIGN §10): every
// public entry point must return a precise non-OK Status — never abort —
// and the pipeline metrics must track successes and failures.

#include <memory>
#include <string>

#include "doduo/core/annotator.h"
#include "doduo/util/metrics.h"
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

class AnnotatorErrorTest : public ::testing::Test {
 protected:
  AnnotatorErrorTest() : config_(SmallConfig()) {
    for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
      vocab_.AddToken(word);
    }
    for (int i = 0; i < config_.num_types; ++i) {
      type_vocab_.AddLabel("type" + std::to_string(i));
    }
    for (int i = 0; i < config_.num_relations; ++i) {
      relation_vocab_.AddLabel("rel" + std::to_string(i));
    }
    util::Rng rng(1);
    model_ = std::make_unique<DoduoModel>(config_, &rng);
    model_->set_training(false);
    tokenizer_ = std::make_unique<text::WordPieceTokenizer>(&vocab_);
    serializer_ = std::make_unique<table::TableSerializer>(
        tokenizer_.get(), config_.serializer);
    annotator_ = std::make_unique<Annotator>(model_.get(), serializer_.get(),
                                             &type_vocab_, &relation_vocab_);
  }

  static table::Table GoodTable(const std::string& id = "good") {
    table::Table table(id);
    table.AddColumn({"a", {"alpha", "beta"}});
    table.AddColumn({"b", {"gamma"}});
    table.AddColumn({"c", {"delta", "alpha"}});
    return table;
  }

  DoduoConfig config_;
  text::Vocab vocab_;
  table::LabelVocab type_vocab_;
  table::LabelVocab relation_vocab_;
  std::unique_ptr<DoduoModel> model_;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer_;
  std::unique_ptr<table::TableSerializer> serializer_;
  std::unique_ptr<Annotator> annotator_;
};

TEST_F(AnnotatorErrorTest, ValidTableAnnotates) {
  auto types = annotator_->AnnotateTypes(GoodTable());
  ASSERT_TRUE(types.ok()) << types.status().ToString();
  ASSERT_EQ(types.value().size(), 3u);
  for (const auto& names : types.value()) {
    ASSERT_FALSE(names.empty());
    for (const std::string& name : names) {
      EXPECT_GE(type_vocab_.Id(name), 0) << name;
    }
  }
}

TEST_F(AnnotatorErrorTest, ZeroColumnTableIsInvalidArgument) {
  const table::Table empty("empty_one");
  auto types = annotator_->AnnotateTypes(empty);
  ASSERT_FALSE(types.ok());
  EXPECT_EQ(types.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(types.status().message().find("empty_one"), std::string::npos);
  EXPECT_NE(types.status().message().find("no columns"), std::string::npos);
  EXPECT_FALSE(annotator_->ColumnEmbeddings(empty).ok());
  EXPECT_FALSE(annotator_->AnnotateKeyRelations(empty).ok());
}

TEST_F(AnnotatorErrorTest, TokenBudgetUnderflowIsInvalidArgument) {
  // More columns than max_total_tokens can carry [CLS] markers for.
  table::Table wide("wide");
  for (int c = 0; c < config_.serializer.max_total_tokens; ++c) {
    wide.AddColumn({"col", {"alpha"}});
  }
  auto types = annotator_->AnnotateTypes(wide);
  ASSERT_FALSE(types.ok());
  EXPECT_EQ(types.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(types.status().message().find("max_total_tokens"),
            std::string::npos);
  EXPECT_NE(types.status().message().find("wide"), std::string::npos);
}

TEST_F(AnnotatorErrorTest, WholeTablePathsRejectTablesPastTheChunkCap) {
  // T = 64 gives ChunkCap() = 31. Past it, a table serialized whole would
  // give its columns no content tokens, so the relation and embedding
  // paths reject it while the type path chunks it.
  ASSERT_EQ(config_.serializer.max_total_tokens, 64);
  ASSERT_EQ(serializer_->ChunkCap(), 31);
  auto table_of = [](int n) {
    table::Table table("band_" + std::to_string(n));
    for (int c = 0; c < n; ++c) table.AddColumn({"col", {"alpha"}});
    return table;
  };
  const table::Table fits = table_of(31);
  EXPECT_TRUE(annotator_->ColumnEmbeddings(fits).ok());
  EXPECT_TRUE(annotator_->AnnotateKeyRelations(fits).ok());
  EXPECT_TRUE(annotator_->AnnotateRelations(fits, {{0, 30}}).ok());
  for (int n : {32, 63}) {
    const table::Table wide = table_of(n);
    for (const util::Status& status :
         {annotator_->ColumnEmbeddings(wide).status(),
          annotator_->AnnotateKeyRelations(wide).status(),
          annotator_->AnnotateRelations(wide, {{0, 1}}).status()}) {
      ASSERT_FALSE(status.ok()) << n;
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
      const std::string& message = status.message();
      EXPECT_NE(message.find("'band_" + std::to_string(n) + "'"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("has " + std::to_string(n) + " columns"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("at most 31"), std::string::npos) << message;
    }
    EXPECT_TRUE(annotator_->AnnotateTypes(wide).ok()) << n;
  }
}

TEST_F(AnnotatorErrorTest, OutOfRangePairIsInvalidArgument) {
  auto relations = annotator_->AnnotateRelations(GoodTable(), {{0, 5}});
  ASSERT_FALSE(relations.ok());
  EXPECT_EQ(relations.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(relations.status().message().find("(0, 5)"), std::string::npos);
  EXPECT_NE(relations.status().message().find("out of range"),
            std::string::npos);
  EXPECT_FALSE(annotator_->AnnotateRelations(GoodTable(), {{-1, 1}}).ok());
}

TEST_F(AnnotatorErrorTest, DuplicatePairIsInvalidArgument) {
  auto relations =
      annotator_->AnnotateRelations(GoodTable(), {{0, 1}, {0, 2}, {0, 1}});
  ASSERT_FALSE(relations.ok());
  EXPECT_EQ(relations.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(relations.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(relations.status().message().find("positions 0 and 2"),
            std::string::npos);
}

TEST_F(AnnotatorErrorTest, EmptyPairListYieldsEmptyResult) {
  auto relations = annotator_->AnnotateRelations(GoodTable(), {});
  ASSERT_TRUE(relations.ok()) << relations.status().ToString();
  EXPECT_TRUE(relations.value().empty());
}

TEST_F(AnnotatorErrorTest, ValidRelationsAnnotate) {
  auto relations = annotator_->AnnotateRelations(GoodTable(), {{0, 1}, {0, 2}});
  ASSERT_TRUE(relations.ok()) << relations.status().ToString();
  ASSERT_EQ(relations.value().size(), 2u);
  for (const std::string& name : relations.value()) {
    EXPECT_GE(relation_vocab_.Id(name), 0) << name;
  }
}

TEST_F(AnnotatorErrorTest, MissingRelationHeadIsFailedPrecondition) {
  DoduoConfig config = SmallConfig();
  config.num_relations = 0;
  config.tasks = TaskSet::kTypesOnly;
  util::Rng rng(2);
  DoduoModel model(config, &rng);
  model.set_training(false);
  Annotator annotator(&model, serializer_.get(), &type_vocab_,
                      /*relation_vocab=*/nullptr);
  auto relations = annotator.AnnotateRelations(GoodTable(), {{0, 1}});
  ASSERT_FALSE(relations.ok());
  EXPECT_EQ(relations.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_NE(relations.status().message().find("relation head"),
            std::string::npos);
  // The type path is unaffected.
  EXPECT_TRUE(annotator.AnnotateTypes(GoodTable()).ok());
}

TEST_F(AnnotatorErrorTest, BatchErrorNamesFailingTableIndex) {
  std::vector<table::Table> tables = {GoodTable("t0"),
                                      table::Table("bad_batch_table"),
                                      GoodTable("t2")};
  auto types = annotator_->AnnotateTypesBatch(tables);
  ASSERT_FALSE(types.ok());
  EXPECT_EQ(types.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(types.status().message().find("table 1 of 3"), std::string::npos);
  EXPECT_NE(types.status().message().find("bad_batch_table"),
            std::string::npos);
}

TEST_F(AnnotatorErrorTest, MetricsTrackAnnotationsAndErrors) {
  util::ResetMetrics();
  ASSERT_TRUE(annotator_->AnnotateTypes(GoodTable()).ok());

  EXPECT_EQ(util::GetCounter("annotator.tables_total")->value(), 1u);
  EXPECT_EQ(util::GetCounter("annotator.columns_total")->value(), 3u);
  EXPECT_EQ(util::GetCounter("annotator.errors_total")->value(), 0u);
  EXPECT_EQ(util::GetCounter("serializer.tables_total")->value(), 1u);
  EXPECT_GT(util::GetCounter("serializer.tokens_total")->value(), 0u);
  EXPECT_EQ(util::GetHistogram("annotator.annotate_us")->count(), 1u);
  EXPECT_EQ(util::GetHistogram("model.encoder_forward_us")->count(), 1u);
  EXPECT_EQ(util::GetHistogram("model.heads_us")->count(), 1u);
  EXPECT_GT(util::GetHistogram("serializer.serialize_us")->count(), 0u);

  // A failed call counts as an error, not as an annotated table, and is
  // rejected before the pipeline's latency sample.
  ASSERT_FALSE(annotator_->AnnotateTypes(table::Table("nope")).ok());
  EXPECT_EQ(util::GetCounter("annotator.errors_total")->value(), 1u);
  EXPECT_EQ(util::GetCounter("annotator.tables_total")->value(), 1u);
  EXPECT_EQ(util::GetHistogram("annotator.annotate_us")->count(), 1u);

  // Batch calls count the batch and each table.
  std::vector<table::Table> tables = {GoodTable("b0"), GoodTable("b1")};
  ASSERT_TRUE(annotator_->AnnotateTypesBatch(tables).ok());
  EXPECT_EQ(util::GetCounter("annotator.batches_total")->value(), 1u);
  EXPECT_EQ(util::GetCounter("annotator.tables_total")->value(), 3u);
  EXPECT_EQ(util::GetCounter("annotator.columns_total")->value(), 9u);
  EXPECT_EQ(util::GetHistogram("annotator.batch_us")->count(), 1u);

  // The annotator's stats snapshot surfaces the same registry.
  const util::MetricsSnapshot snapshot = Annotator::StatsSnapshot();
  bool found = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "annotator.tables_total") {
      found = true;
      EXPECT_EQ(counter.value, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnnotatorErrorTest, ErrorsDoNotDisturbSubsequentAnnotations) {
  // A rejected input must leave the annotator fully usable, and valid-input
  // results must be unaffected by interleaved failures.
  auto before = annotator_->AnnotateTypes(GoodTable());
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(annotator_->AnnotateTypes(table::Table("broken")).ok());
  ASSERT_FALSE(annotator_->AnnotateRelations(GoodTable(), {{9, 9}}).ok());
  auto after = annotator_->AnnotateTypes(GoodTable());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

}  // namespace
}  // namespace doduo::core
