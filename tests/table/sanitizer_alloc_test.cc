// Pins "no allocation per cell" for the sanitizer scan: this binary
// replaces the global operator new with a counting one, and Classify and
// IsNullMarker must not call it on a column that mixes null markers,
// header echoes, whitespace and ill-formed UTF-8. Its own binary, so the
// replacement cannot leak into other tests.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>

#include "doduo/table/sanitizer.h"
#include "gtest/gtest.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  const size_t before = g_allocations.load();
  std::string* volatile heap = new std::string(100, 'x');
  delete heap;
  EXPECT_GT(g_allocations.load(), before);
}

TEST(SanitizerAllocTest, ClassifyAllocatesNothing) {
  const Column column = MixedColumn();
  const ColumnSanitizer sanitizer;
  const size_t before = g_allocations.load();
  const SkipReason reason = sanitizer.Classify(column);
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(reason, SkipReason::kNone);
}

TEST(SanitizerAllocTest, IsNullMarkerAllocatesNothing) {
  const Column column = MixedColumn();
  const size_t before = g_allocations.load();
  size_t nulls = 0;
  for (const std::string& value : column.values) nulls += IsNullMarker(value);
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(nulls, 0u);
}

}  // namespace
}  // namespace doduo::table
