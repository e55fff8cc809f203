// Pins "no allocation per cell" for the sanitizer scan: this binary
// replaces the global operator new with a counting one
// (testing/counting_new.cc), and Classify and IsNullMarker must not call
// it on a column that mixes null markers, header echoes, whitespace and
// ill-formed UTF-8. Its own binary, so the replacement cannot leak into
// other tests.

#include <iterator>
#include <string>

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

}  // namespace
}  // namespace doduo::table
