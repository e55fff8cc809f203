// The dirty-input contract (DESIGN §15): AnnotateTypesRobust never fails a
// whole table — every column comes back annotated with a calibrated
// confidence, abstained, or skipped with a machine-readable reason — and on
// clean input its labels are byte-identical to AnnotateTypes, which is its
// unsanitized projection.

#include <memory>
#include <string>
#include <vector>

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
  config.num_relations = 0;
  config.tasks = TaskSet::kTypesOnly;
  return config;
}

class AnnotatorRobustTest : public ::testing::Test {
 protected:
  AnnotatorRobustTest() : config_(SmallConfig()) {
    for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
      vocab_.AddToken(word);
    }
    for (int i = 0; i < config_.num_types; ++i) {
      type_vocab_.AddLabel("type" + std::to_string(i));
    }
    util::Rng rng(1);
    model_ = std::make_unique<DoduoModel>(config_, &rng);
    model_->set_training(false);
    tokenizer_ = std::make_unique<text::WordPieceTokenizer>(&vocab_);
    serializer_ = std::make_unique<table::TableSerializer>(
        tokenizer_.get(), config_.serializer);
    annotator_ = std::make_unique<Annotator>(model_.get(), serializer_.get(),
                                             &type_vocab_,
                                             /*relation_vocab=*/nullptr);
  }

  static table::Table CleanTable(const std::string& id = "clean") {
    table::Table table(id);
    table.AddColumn({"a", {"alpha", "beta"}});
    table.AddColumn({"b", {"gamma"}});
    table.AddColumn({"c", {"delta", "alpha"}});
    return table;
  }

  /// `n` columns of varied content, named "wide<n>".
  static table::Table WideTable(int n) {
    static const char* const kWords[] = {"alpha", "beta", "gamma", "delta"};
    table::Table table("wide" + std::to_string(n));
    for (int c = 0; c < n; ++c) {
      table.AddColumn({"col" + std::to_string(c),
                       {kWords[c % 4], kWords[(c / 4) % 4], kWords[(c + 1) % 4]}});
    }
    return table;
  }

  DoduoConfig config_;
  text::Vocab vocab_;
  table::LabelVocab type_vocab_;
  std::unique_ptr<DoduoModel> model_;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer_;
  std::unique_ptr<table::TableSerializer> serializer_;
  std::unique_ptr<Annotator> annotator_;
};

TEST_F(AnnotatorRobustTest, CleanTableMatchesNonRobustLabels) {
  const auto plain = annotator_->AnnotateTypes(CleanTable());
  ASSERT_TRUE(plain.ok());
  const auto outcomes = annotator_->AnnotateTypesRobust(CleanTable());
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t c = 0; c < outcomes.size(); ++c) {
    EXPECT_TRUE(outcomes[c].annotated());
    EXPECT_EQ(outcomes[c].labels, plain.value()[c]);
    EXPECT_TRUE(outcomes[c].skipped_reason.empty());
    EXPECT_FALSE(outcomes[c].abstained);
    EXPECT_GT(outcomes[c].confidence, 0.0);
    EXPECT_LE(outcomes[c].confidence, 1.0);
  }
}

TEST_F(AnnotatorRobustTest, ZeroColumnTableYieldsEmptyOutcomes) {
  EXPECT_TRUE(
      annotator_->AnnotateTypesRobust(table::Table("empty")).empty());
}

TEST_F(AnnotatorRobustTest, DirtyColumnsGetSkipReasonsNotFailure) {
  util::ResetMetrics();
  table::Table table("dirty");
  table.AddColumn({"a", {"alpha", "beta"}});
  table.AddColumn({"void", {"", "null", "-"}});       // mostly null
  table.AddColumn({"ghost", {}});                     // empty
  table.AddColumn({"b", {"gamma", "bad\xC3 utf8"}});  // repairable
  const auto outcomes = annotator_->AnnotateTypesRobust(table);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].annotated());
  EXPECT_EQ(outcomes[1].skipped_reason, "mostly_null");
  EXPECT_TRUE(outcomes[1].labels.empty());
  EXPECT_EQ(outcomes[1].confidence, 0.0);
  EXPECT_EQ(outcomes[2].skipped_reason, "empty_column");
  EXPECT_TRUE(outcomes[3].annotated());  // repaired, then annotated
  EXPECT_EQ(util::GetCounter("annotate.skipped_cols")->value(), 2u);
}

TEST_F(AnnotatorRobustTest, WideTableIsChunkedNotRejected) {
  // Column count far beyond max_total_tokens: the non-robust path errors,
  // the robust path chunks and annotates everything.
  table::Table wide("wide");
  const int n = config_.serializer.max_total_tokens + 40;
  for (int c = 0; c < n; ++c) {
    wide.AddColumn({"col" + std::to_string(c), {"alpha", "beta"}});
  }
  ASSERT_FALSE(annotator_->AnnotateTypes(wide).ok());
  const auto outcomes = annotator_->AnnotateTypesRobust(wide);
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(n));
  for (const ColumnOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.annotated());
    EXPECT_TRUE(outcome.skipped_reason.empty());
  }
}

TEST_F(AnnotatorRobustTest, PlainLabelsAreUnsanitizedOutcomeLabels) {
  // With T = max_total_tokens and cap = (T - 1) / 2, a table of cap < n <=
  // T - 1 columns fits the serializer only with 0 content tokens per
  // column. The plain API must chunk it like the outcome pipeline instead
  // of labelling every column from its bare [CLS] marker.
  const int total = config_.serializer.max_total_tokens;
  const int cap = (total - 1) / 2;
  AnnotateOptions unsanitized;
  unsanitized.sanitize = false;
  std::vector<table::Table> tables;
  std::vector<std::vector<ColumnOutcome>> expected;
  for (int n : {cap, cap + 1, total - 1}) {
    tables.push_back(WideTable(n));
    expected.push_back(
        annotator_->AnnotateTypesRobust(tables.back(), unsanitized));
    const auto plain = annotator_->AnnotateTypes(tables.back());
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_EQ(plain.value().size(), static_cast<size_t>(n));
    for (size_t c = 0; c < plain.value().size(); ++c) {
      EXPECT_EQ(plain.value()[c], expected.back()[c].labels)
          << "n=" << n << " column " << c;
    }
  }
  const auto batch = annotator_->AnnotateTypesBatch(tables);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    ASSERT_EQ(batch.value()[t].size(), expected[t].size());
    for (size_t c = 0; c < expected[t].size(); ++c) {
      EXPECT_EQ(batch.value()[t][c], expected[t][c].labels)
          << "table " << t << " column " << c;
    }
  }

  // Past the band the plain API still rejects, with the serializer's
  // messages.
  const std::vector<table::Table> rejected = {CleanTable(),
                                              WideTable(total)};
  const auto too_wide = annotator_->AnnotateTypesBatch(rejected);
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(too_wide.status().message(),
            "table 1 of 2: table 'wide64' has 64 columns but "
            "max_total_tokens=64 fits at most 63 column [CLS] markers plus "
            "the trailing [SEP]");
  const auto empty = annotator_->AnnotateTypes(table::Table("none"));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.status().message(), "table 'none' has no columns");
}

TEST_F(AnnotatorRobustTest, AbstentionThresholdTradesCoverageMonotonically) {
  util::ResetMetrics();
  const table::Table table = CleanTable();
  size_t previous_annotated = 100;
  for (double threshold : {0.0, 0.3, 0.6, 0.9, 1.01}) {
    AnnotateOptions options;
    options.abstain_below = threshold;
    const auto outcomes = annotator_->AnnotateTypesRobust(table, options);
    size_t annotated = 0;
    for (const ColumnOutcome& outcome : outcomes) {
      if (outcome.annotated()) {
        ++annotated;
        EXPECT_GE(outcome.confidence, threshold);
      } else {
        EXPECT_TRUE(outcome.abstained);
        EXPECT_TRUE(outcome.labels.empty());
        EXPECT_LT(outcome.confidence, threshold);
      }
    }
    EXPECT_LE(annotated, previous_annotated) << "threshold=" << threshold;
    previous_annotated = annotated;
  }
  // Above 1.0 everything must abstain (confidences live in [0, 1]).
  EXPECT_EQ(previous_annotated, 0u);
  EXPECT_GT(util::GetCounter("annotate.abstained")->value(), 0u);
}

TEST_F(AnnotatorRobustTest, SanitizeCanBeDisabled) {
  table::Table table("raw");
  table.AddColumn({"void", {"", "null", "-"}});
  AnnotateOptions options;
  options.sanitize = false;
  const auto outcomes = annotator_->AnnotateTypesRobust(table, options);
  ASSERT_EQ(outcomes.size(), 1u);
  // Without the sanitizer pass the column is annotated as-is.
  EXPECT_TRUE(outcomes[0].annotated());
}

TEST_F(AnnotatorRobustTest, BatchMatchesScalarCalls) {
  std::vector<table::Table> tables;
  tables.push_back(CleanTable("t0"));
  table::Table dirty("t1");
  dirty.AddColumn({"void", {"", "-", "null"}});
  dirty.AddColumn({"a", {"alpha"}});
  tables.push_back(dirty);
  tables.push_back(CleanTable("t2"));

  const auto batch = annotator_->AnnotateTypesRobustBatch(tables);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t t = 0; t < tables.size(); ++t) {
    const auto scalar = annotator_->AnnotateTypesRobust(tables[t]);
    ASSERT_EQ(batch[t].size(), scalar.size()) << "table " << t;
    for (size_t c = 0; c < scalar.size(); ++c) {
      EXPECT_EQ(batch[t][c].labels, scalar[c].labels);
      EXPECT_EQ(batch[t][c].skipped_reason, scalar[c].skipped_reason);
      EXPECT_EQ(batch[t][c].confidence, scalar[c].confidence);
    }
  }
}

TEST_F(AnnotatorRobustTest, ApplyAbstentionIsIdempotentAndScoped) {
  util::ResetMetrics();
  ColumnOutcome annotated;
  annotated.labels = {"type1"};
  annotated.confidence = 0.4;
  ApplyAbstention(&annotated, 0.5);
  EXPECT_TRUE(annotated.abstained);
  EXPECT_TRUE(annotated.labels.empty());
  ApplyAbstention(&annotated, 0.5);  // second application is a no-op
  EXPECT_EQ(util::GetCounter("annotate.abstained")->value(), 1u);

  ColumnOutcome confident;
  confident.labels = {"type2"};
  confident.confidence = 0.9;
  ApplyAbstention(&confident, 0.5);
  EXPECT_FALSE(confident.abstained);
  EXPECT_EQ(confident.labels, std::vector<std::string>{"type2"});

  ColumnOutcome skipped;
  skipped.skipped_reason = "empty_column";
  ApplyAbstention(&skipped, 0.5);
  EXPECT_FALSE(skipped.abstained);
  EXPECT_EQ(util::GetCounter("annotate.abstained")->value(), 1u);
}

}  // namespace
}  // namespace doduo::core
