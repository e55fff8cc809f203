// Serializing through the sanitizer's overlay (ColumnSanitizer::Repair +
// SerializeTable(table, columns, &overlay)) must equal serializing the
// table Sanitize materializes, token for token and row id for row id: on
// corrupted generated tables with ill-formed UTF-8 cells and names, clamped
// cells and skipped columns, with and without metadata, whole and in
// column chunks.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "doduo/synth/table_generator.h"
#include "doduo/table/sanitizer.h"
#include "doduo/table/serializer.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/util/metrics.h"
#include "gtest/gtest.h"
#include "table/dirty_tables.h"

namespace doduo::table {
namespace {

class SerializerOverlayTest : public ::testing::Test {
 protected:
  SerializerOverlayTest() : kb_(synth::KnowledgeBase::BuildWikiTableKb(7)) {
    synth::TableGeneratorOptions options;
    options.num_tables = 40;
    options.max_rows = 12;
    options.max_cols = 8;
    synth::TableGenerator generator(&kb_, options);
    util::Rng rng(8);
    dataset_ = generator.Generate(&rng);
    std::vector<std::string> lines;
    for (const auto& annotated : dataset_.tables) {
      for (const auto& column : annotated.table.columns()) {
        lines.push_back(column.name);
        for (const auto& value : column.values) lines.push_back(value);
      }
    }
    text::WordPieceTrainer trainer({.vocab_size = 500,
                                    .min_pair_frequency = 2});
    vocab_ = trainer.TrainFromLines(lines);
  }

  /// The dataset's tables made dirty, plus one wide table of all their
  /// columns.
  std::vector<Table> DirtyTables(size_t max_cell_bytes, uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<Table> tables;
    Table wide("wide");
    for (const auto& annotated : dataset_.tables) {
      tables.push_back(MakeDirtyTable(annotated.table, max_cell_bytes, &rng));
      for (const Column& column : tables.back().columns()) {
        wide.AddColumn(column);
      }
    }
    tables.push_back(std::move(wide));
    return tables;
  }

  synth::KnowledgeBase kb_;
  ColumnAnnotationDataset dataset_;
  text::Vocab vocab_;
};

void ExpectSameSerialization(const util::Result<SerializedTable>& got,
                             const util::Result<SerializedTable>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(got.value().token_ids, want.value().token_ids);
  EXPECT_EQ(got.value().row_ids, want.value().row_ids);
  EXPECT_EQ(got.value().cls_positions, want.value().cls_positions);
}

TEST_F(SerializerOverlayTest, OverlayEqualsMaterializedSanitizedTable) {
  const text::WordPieceTokenizer tokenizer(&vocab_);
  size_t repaired = 0;
  size_t clamped = 0;
  size_t names = 0;
  size_t skipped = 0;
  size_t chunked = 0;
  for (const size_t max_cell_bytes : {size_t{24}, size_t{4096}}) {
    SanitizerOptions sanitizer_options;
    sanitizer_options.max_cell_bytes = max_cell_bytes;
    const ColumnSanitizer sanitizer(sanitizer_options);
    for (const Table& table :
         DirtyTables(max_cell_bytes, 9 + max_cell_bytes)) {
      const SanitizeResult materialized = sanitizer.Sanitize(table);
      const SanitizeResult repair = sanitizer.Repair(table);
      ASSERT_EQ(repair.any_modified, materialized.any_modified);
      EXPECT_EQ(repair.table.num_columns(), 0);
      const Table& sanitized =
          materialized.any_modified ? materialized.table : table;
      std::vector<int> annotatable;
      std::vector<int> all;
      for (int c = 0; c < table.num_columns(); ++c) {
        const ColumnReport& report = repair.columns[static_cast<size_t>(c)];
        repaired += report.cells_repaired;
        clamped += report.cells_clamped;
        names += report.name_repaired;
        all.push_back(c);
        if (report.skip == SkipReason::kNone) {
          annotatable.push_back(c);
        } else {
          ++skipped;
        }
      }
      for (const bool metadata : {false, true}) {
        for (const int total : {32, 160}) {
          SerializerOptions options;
          options.include_metadata = metadata;
          options.max_total_tokens = total;
          options.max_tokens_per_column = 12;
          const TableSerializer serializer(&tokenizer, options);
          // Skipped columns read through their empty overlays as they came
          // in, like the materialized table keeps them.
          ExpectSameSerialization(
              serializer.SerializeTable(table, all, &repair.overlay),
              serializer.SerializeTable(sanitized, all));
          // The annotate path's chunks of the annotatable columns, and
          // smaller ones.
          const size_t chunk_cap = static_cast<size_t>(serializer.ChunkCap());
          for (const size_t cap : {size_t{1}, size_t{3}, chunk_cap}) {
            const std::span<const int> columns(annotatable);
            for (size_t begin = 0; begin < columns.size(); begin += cap) {
              const auto chunk = columns.subspan(
                  begin, std::min(cap, columns.size() - begin));
              chunked += chunk.size() < columns.size();
              ExpectSameSerialization(
                  serializer.SerializeTable(table, chunk, &repair.overlay),
                  serializer.SerializeTable(sanitized, chunk));
            }
          }
          if (HasFailure()) {
            FAIL() << "table " << table.id() << " metadata " << metadata
                   << " total " << total << " clamp " << max_cell_bytes;
          }
        }
      }
    }
  }
  // The corpus exercises every kind of repair the overlay carries.
  EXPECT_GT(repaired, 100u);
  EXPECT_GT(clamped, 10u);
  EXPECT_GT(names, 10u);
  EXPECT_GT(skipped, 5u);
  EXPECT_GT(chunked, 100u);
}

TEST_F(SerializerOverlayTest, EmptyOverlayChangesNothing) {
  const text::WordPieceTokenizer tokenizer(&vocab_);
  const TableSerializer serializer(&tokenizer, SerializerOptions{});
  const Table& table = dataset_.tables[0].table;
  std::vector<int> all(static_cast<size_t>(table.num_columns()));
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  const TableOverlay none;
  ExpectSameSerialization(serializer.SerializeTable(table, all, &none),
                          serializer.SerializeTable(table));
}

TEST_F(SerializerOverlayTest, HandBuiltOverlayReplacesNamesAndCells) {
  // The tokenizer repairs ill-formed UTF-8 on its own, so a repaired name
  // tokenizes like the raw one; replacements that read differently show
  // that every name and cell is read through the overlay.
  const text::WordPieceTokenizer tokenizer(&vocab_);
  SerializerOptions options;
  options.include_metadata = true;
  options.max_total_tokens = 512;
  const TableSerializer serializer(&tokenizer, options);
  const Table& table = dataset_.tables[0].table;
  ASSERT_GE(table.num_columns(), 2);
  ASSERT_GE(table.column(1).values.size(), 3u);
  Table replaced = table;
  TableOverlay overlay;
  overlay.columns.resize(static_cast<size_t>(table.num_columns()));
  ColumnOverlay& first = overlay.columns[0];
  first.name = "replaced header";
  replaced.mutable_column(0).name = *first.name;
  ColumnOverlay& second = overlay.columns[1];
  for (const size_t row : {size_t{0}, size_t{2}}) {
    second.rows.push_back(row);
    second.values.push_back("replaced cell " + std::to_string(row));
    replaced.mutable_column(1).values[row] = second.values.back();
  }
  std::vector<int> all(static_cast<size_t>(table.num_columns()));
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  const auto got = serializer.SerializeTable(table, all, &overlay);
  ExpectSameSerialization(got, serializer.SerializeTable(replaced));
  EXPECT_NE(got.value().token_ids,
            serializer.SerializeTable(table).value().token_ids);
}

TEST_F(SerializerOverlayTest, OverlayOfAnotherWidthIsInvalidArgument) {
  const text::WordPieceTokenizer tokenizer(&vocab_);
  const TableSerializer serializer(&tokenizer, SerializerOptions{});
  const Table& table = dataset_.tables[0].table;
  TableOverlay overlay;
  overlay.columns.resize(static_cast<size_t>(table.num_columns()) + 1);
  const std::vector<int> first = {0};
  const auto result = serializer.SerializeTable(table, first, &overlay);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SerializerOverlayTest, RepairCountsWhatSanitizeCounts) {
  // The sanitizer.* counters count the reports' totals, once per pass,
  // whether the pass materializes a table or not.
  const ColumnSanitizer sanitizer;
  util::Counter* cells_repaired = util::GetCounter("sanitizer.cells_repaired");
  util::Counter* cells_clamped = util::GetCounter("sanitizer.cells_clamped");
  util::Counter* cols_skipped = util::GetCounter("sanitizer.cols_skipped");
  util::Counter* tables = util::GetCounter("sanitizer.tables");
  for (const Table& table : DirtyTables(4096, 5)) {
    for (const bool materialize : {false, true}) {
      util::ResetMetrics();
      const SanitizeResult result =
          materialize ? sanitizer.Sanitize(table) : sanitizer.Repair(table);
      size_t repaired = 0;
      size_t clamped = 0;
      for (const ColumnReport& report : result.columns) {
        repaired += report.cells_repaired;
        clamped += report.cells_clamped;
      }
      EXPECT_EQ(cells_repaired->value(), repaired);
      EXPECT_EQ(cells_clamped->value(), clamped);
      EXPECT_EQ(cols_skipped->value(), result.num_skipped());
      EXPECT_EQ(tables->value(), 1u);
    }
  }
}

}  // namespace
}  // namespace doduo::table
