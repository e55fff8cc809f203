// The robust path serializes dirty tables through the sanitizer's overlay
// instead of a sanitized copy. Its outcomes (labels, confidences,
// abstentions, skip reasons) must equal those of the copy path it
// replaced: the table ColumnSanitizer::Sanitize materializes, cut to its
// annotatable columns and annotated with the sanitizer off, plus the skip
// reasons. Single and batch calls, fp32 and int8, and a wide dirty table
// that is annotated in column chunks.

#include <memory>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/nn/quant.h"
#include "doduo/synth/table_generator.h"
#include "doduo/text/wordpiece_trainer.h"
#include "gtest/gtest.h"
#include "table/dirty_tables.h"

namespace doduo::core {
namespace {

class AnnotatorOverlayTest : public ::testing::TestWithParam<bool> {
 protected:
  AnnotatorOverlayTest() : kb_(synth::KnowledgeBase::BuildWikiTableKb(11)) {
    synth::TableGeneratorOptions generator_options;
    generator_options.num_tables = 24;
    generator_options.max_rows = 10;
    generator_options.max_cols = 8;
    synth::TableGenerator generator(&kb_, generator_options);
    util::Rng rng(12);
    dataset_ = generator.Generate(&rng);
    std::vector<std::string> lines;
    for (const auto& annotated : dataset_.tables) {
      for (const auto& column : annotated.table.columns()) {
        lines.push_back(column.name);
        for (const auto& value : column.values) lines.push_back(value);
      }
    }
    text::WordPieceTrainer wordpiece({.vocab_size = 400,
                                      .min_pair_frequency = 2});
    vocab_ = wordpiece.TrainFromLines(lines);
    tokenizer_ = std::make_unique<text::WordPieceTokenizer>(&vocab_);

    config_.encoder.vocab_size = vocab_.size();
    config_.encoder.max_positions = 64;
    config_.encoder.hidden_dim = 16;
    config_.encoder.num_heads = 2;
    config_.encoder.ffn_dim = 32;
    config_.encoder.num_layers = 2;
    config_.encoder.dropout = 0.0f;
    config_.serializer.max_total_tokens = 64;
    config_.serializer.include_metadata = true;
    config_.num_types = dataset_.type_vocab.size();
    config_.num_relations = 0;
    config_.tasks = TaskSet::kTypesOnly;
    util::Rng model_rng(13);
    model_ = std::make_unique<DoduoModel>(config_, &model_rng);
    serializer_ = std::make_unique<table::TableSerializer>(tokenizer_.get(),
                                                           config_.serializer);
    annotator_ = std::make_unique<Annotator>(model_.get(), serializer_.get(),
                                             &dataset_.type_vocab,
                                             /*relation_vocab=*/nullptr);
    nn::SetQuantEnabled(GetParam());
  }

  ~AnnotatorOverlayTest() override { nn::SetQuantEnabled(false); }

  /// The dataset's tables made dirty, plus one wide table of all their
  /// columns (well past ChunkCap()).
  std::vector<table::Table> DirtyTables(const AnnotateOptions& options) const {
    util::Rng rng(14);
    std::vector<table::Table> tables;
    table::Table wide("wide");
    for (const auto& annotated : dataset_.tables) {
      tables.push_back(table::MakeDirtyTable(
          annotated.table, options.sanitizer.max_cell_bytes, &rng));
      for (const table::Column& column : tables.back().columns()) {
        wide.AddColumn(column);
      }
    }
    tables.push_back(std::move(wide));
    return tables;
  }

  /// The copy path: Sanitize's materialized table, cut to its annotatable
  /// columns and annotated with the sanitizer off, plus the skip reasons.
  std::vector<ColumnOutcome> CopyPathOutcomes(
      const table::Table& table, const AnnotateOptions& options) const {
    const table::SanitizeResult sanitized =
        table::ColumnSanitizer(options.sanitizer).Sanitize(table);
    const table::Table& effective =
        sanitized.any_modified ? sanitized.table : table;
    table::Table annotatable(table.id());
    std::vector<int> index;
    for (int c = 0; c < table.num_columns(); ++c) {
      if (sanitized.columns[static_cast<size_t>(c)].skip ==
          table::SkipReason::kNone) {
        annotatable.AddColumn(effective.column(c));
        index.push_back(c);
      }
    }
    AnnotateOptions unsanitized = options;
    unsanitized.sanitize = false;
    const std::vector<ColumnOutcome> annotated =
        annotator_->AnnotateTypesRobust(annotatable, unsanitized);
    std::vector<ColumnOutcome> outcomes(
        static_cast<size_t>(table.num_columns()));
    for (int c = 0; c < table.num_columns(); ++c) {
      const table::SkipReason skip =
          sanitized.columns[static_cast<size_t>(c)].skip;
      if (skip != table::SkipReason::kNone) {
        outcomes[static_cast<size_t>(c)].skipped_reason =
            table::SkipReasonName(skip);
      }
    }
    for (size_t i = 0; i < index.size(); ++i) {
      outcomes[static_cast<size_t>(index[i])] = annotated[i];
    }
    return outcomes;
  }

  synth::KnowledgeBase kb_;
  table::ColumnAnnotationDataset dataset_;
  text::Vocab vocab_;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer_;
  DoduoConfig config_;
  std::unique_ptr<DoduoModel> model_;
  std::unique_ptr<table::TableSerializer> serializer_;
  std::unique_ptr<Annotator> annotator_;
};

void ExpectSameOutcomes(const std::vector<ColumnOutcome>& got,
                        const std::vector<ColumnOutcome>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got[c].labels, want[c].labels) << where << " column " << c;
    EXPECT_EQ(got[c].confidence, want[c].confidence)
        << where << " column " << c;
    EXPECT_EQ(got[c].abstained, want[c].abstained)
        << where << " column " << c;
    EXPECT_EQ(got[c].skipped_reason, want[c].skipped_reason)
        << where << " column " << c;
  }
}

TEST_P(AnnotatorOverlayTest, OutcomesEqualTheSanitizedCopyPath) {
  for (const size_t max_cell_bytes : {size_t{24}, size_t{4096}}) {
    AnnotateOptions options;
    options.sanitizer.max_cell_bytes = max_cell_bytes;
    options.abstain_below = 0.2;
    const std::vector<table::Table> tables = DirtyTables(options);
    ASSERT_GT(tables.back().num_columns(), 2 * serializer_->ChunkCap());
    size_t skipped = 0;
    size_t modified = 0;
    std::vector<std::vector<ColumnOutcome>> want;
    for (const table::Table& table : tables) {
      want.push_back(CopyPathOutcomes(table, options));
      const table::SanitizeResult sanitized =
          table::ColumnSanitizer(options.sanitizer).Repair(table);
      skipped += sanitized.num_skipped();
      modified += sanitized.any_modified;
      ExpectSameOutcomes(annotator_->AnnotateTypesRobust(table, options),
                         want.back(), "single " + table.id());
    }
    const auto batch = annotator_->AnnotateTypesRobustBatch(tables, options);
    ASSERT_EQ(batch.size(), tables.size());
    for (size_t t = 0; t < tables.size(); ++t) {
      ExpectSameOutcomes(batch[t], want[t], "batch " + tables[t].id());
    }
    // The corpus reaches the skip and repair paths.
    EXPECT_GT(skipped, 3u);
    EXPECT_GT(modified, tables.size() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Fp32AndInt8, AnnotatorOverlayTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Int8" : "Fp32";
                         });

}  // namespace
}  // namespace doduo::core
