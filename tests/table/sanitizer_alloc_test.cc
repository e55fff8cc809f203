// Pins "no allocation per cell" for the sanitizer scan: this binary
// replaces the global operator new with a counting one
// (testing/counting_new.cc), and Classify and IsNullMarker must not call
// it on a column that mixes null markers, header echoes, whitespace and
// ill-formed UTF-8; Repair calls it once per repaired cell plus a few
// times per table. Its own binary, so the replacement cannot leak into
// other tests.

#include <iterator>
#include <string>
#include <vector>

#include "doduo/table/sanitizer.h"
#include "gtest/gtest.h"
#include "testing/counting_new.h"

namespace doduo::table {
namespace {

Column MixedColumn() {
  const std::string cells[] = {
      "oslo",         "  NULL ",      "\tn/a\v",   "City",
      " city\f",      "caf\xC3\xA9",  "bad\x80",   "\xC3",
      "",             "   ",          "NaN",       "bergen and tromso",
      "\xA0null\x85", "a much longer cell that is not a marker at all"};
  Column column;
  column.name = " City ";
  for (int i = 0; i < 10000; ++i) {
    column.values.push_back(cells[static_cast<size_t>(i) % std::size(cells)]);
  }
  return column;
}

TEST(SanitizerAllocTest, CountingOperatorNewSeesAllocations) {
  const size_t before = doduo::testing::OperatorNewCalls();
  std::string* volatile heap = new std::string(100, 'x');
  delete heap;
  EXPECT_GT(doduo::testing::OperatorNewCalls(), before);
}

TEST(SanitizerAllocTest, ClassifyAllocatesNothing) {
  const Column column = MixedColumn();
  const ColumnSanitizer sanitizer;
  const size_t before = doduo::testing::OperatorNewCalls();
  const SkipReason reason = sanitizer.Classify(column);
  EXPECT_EQ(doduo::testing::OperatorNewCalls(), before);
  EXPECT_EQ(reason, SkipReason::kNone);
}

TEST(SanitizerAllocTest, IsNullMarkerAllocatesNothing) {
  const Column column = MixedColumn();
  const size_t before = doduo::testing::OperatorNewCalls();
  size_t nulls = 0;
  for (const std::string& value : column.values) nulls += IsNullMarker(value);
  EXPECT_EQ(doduo::testing::OperatorNewCalls(), before);
  EXPECT_GT(nulls, 0u);
}

// One 10k-cell column with 1 % bad cells, all longer than the short-string
// buffer: 50 ill-formed UTF-8 cells and 50 over the clamp length.
Table DirtyLakeColumnTable() {
  Column column;
  column.name = "city";
  for (int i = 0; i < 10000; ++i) {
    std::string cell = "a clean cell number " + std::to_string(i);
    if (i % 200 == 7) cell += " with a bad byte \x80 in it";
    if (i % 200 == 107) cell += std::string(64, 'x');
    column.values.push_back(std::move(cell));
  }
  Table table("lake");
  table.AddColumn(std::move(column));
  return table;
}

Table CleanTable() {
  Table table("clean");
  for (int c = 0; c < 3; ++c) {
    Column column;
    column.name = "col" + std::to_string(c);
    for (int i = 0; i < 1000; ++i) {
      column.values.push_back("a clean cell number " + std::to_string(i));
    }
    table.AddColumn(std::move(column));
  }
  return table;
}

TEST(SanitizerAllocTest, RepairAllocatesPerRepairedCellOnly) {
  const Table table = DirtyLakeColumnTable();
  SanitizerOptions options;
  options.max_cell_bytes = 64;
  const ColumnSanitizer sanitizer(options);
  (void)sanitizer.Repair(table);  // resolves the metrics once
  const size_t before = doduo::testing::OperatorNewCalls();
  const SanitizeResult result = sanitizer.Repair(table);
  const size_t calls = doduo::testing::OperatorNewCalls() - before;
  ASSERT_EQ(result.columns[0].cells_repaired, 50u);
  ASSERT_EQ(result.columns[0].cells_clamped, 50u);
  ASSERT_EQ(result.overlay.columns[0].rows.size(), 100u);
  // One allocation per repaired cell; the constant covers the reports, the
  // overlay's columns and values, and the row list's geometric growth
  // (log2 of the repaired count).
  EXPECT_LE(calls, 100u + 16u);
}

TEST(SanitizerAllocTest, RepairOnCleanTableAllocatesNoMoreThanSanitizeDid) {
  const Table table = CleanTable();
  const ColumnSanitizer sanitizer;
  (void)sanitizer.Repair(table);  // resolves the metrics once
  size_t before = doduo::testing::OperatorNewCalls();
  const SanitizeResult repaired = sanitizer.Repair(table);
  const size_t repair_calls = doduo::testing::OperatorNewCalls() - before;
  before = doduo::testing::OperatorNewCalls();
  const SanitizeResult sanitized = sanitizer.Sanitize(table);
  const size_t sanitize_calls = doduo::testing::OperatorNewCalls() - before;
  ASSERT_FALSE(repaired.any_modified);
  ASSERT_FALSE(sanitized.any_modified);
  // Sanitize made three per table before the overlay: the reports, the
  // per-column fix lists and the rewrite flags. Repair makes two: the
  // reports and the overlay's columns.
  EXPECT_LE(repair_calls, 3u);
  EXPECT_EQ(sanitize_calls, repair_calls);
}

}  // namespace
}  // namespace doduo::table
