// Differential test of the allocation-free sanitizer scan against the
// string-building one it replaced (sanitizer_oracle.h): IsNullMarker for
// every byte next to every marker, and Classify, Sanitize and Repair's
// overlay (skip reasons, repair / clamp counts, repaired rows and bytes) on
// random dirty tables.

#include <string>
#include <vector>

#include "doduo/table/sanitizer.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "table/sanitizer_oracle.h"

namespace doduo::table {
namespace {

std::string Describe(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c >= 0x20 && c < 0x7F) {
      out.push_back(static_cast<char>(c));
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

// Cells around `word` with byte `b` before, after, on both sides, inside,
// and alone.
std::vector<std::string> ByteVariants(const std::string& word, char b) {
  std::vector<std::string> out = {std::string(1, b),
                                  std::string(3, b),
                                  b + word,
                                  word + b,
                                  b + word + b,
                                  std::string(2, b) + word + ' ' + b};
  if (word.size() > 1) out.push_back(word.substr(0, 1) + b + word.substr(1));
  return out;
}

const std::vector<std::string>& MarkerWords() {
  static const std::vector<std::string> words = {
      "",    "null", "NULL", "Null", "none", "NONE", "n/a", "N/A", "na",
      "NA",  "nan",  "NaN",  "nil",  "NIL",  "-",    "?",   "--",  "nulls",
      "n/b", "city", "CITY", "ciTy", "0"};
  return words;
}

TEST(SanitizerDiffTest, NullMarkerMatchesOracleForEveryByte) {
  for (const std::string& word : MarkerWords()) {
    ASSERT_EQ(IsNullMarker(word), OracleIsNullMarker(word)) << word;
    for (int byte = 0; byte < 256; ++byte) {
      for (const std::string& cell :
           ByteVariants(word, static_cast<char>(byte))) {
        ASSERT_EQ(IsNullMarker(cell), OracleIsNullMarker(cell))
            << "'" << Describe(cell) << "'";
      }
    }
  }
}

TEST(SanitizerDiffTest, HeaderEchoMatchesOracleForEveryByte) {
  // One echo candidate per column, so each cell decides the column's
  // header_like verdict on its own.
  const SanitizerOptions options;
  for (const std::string& header : {std::string("City"), std::string(" city\t"),
                                    std::string("n/a"), std::string("")}) {
    for (int byte = 0; byte < 256; ++byte) {
      const char b = static_cast<char>(byte);
      std::vector<std::string> names = {header, b + header, header + b};
      for (const std::string& name : names) {
        for (const std::string& cell : ByteVariants("CITY", b)) {
          Column column;
          column.name = name;
          column.values = {cell};
          ASSERT_EQ(ColumnSanitizer(options).Classify(column),
                    OracleClassify(column, options))
              << "name '" << Describe(name) << "' cell '" << Describe(cell)
              << "'";
        }
      }
    }
  }
}

// A random dirty cell: markers and header echoes with C-locale and
// non-C-locale whitespace (\v, \f, 0x85, 0xA0) around them in random case,
// ill-formed UTF-8, long cells, and plain words.
std::string RandomCell(const std::string& header, util::Rng* rng) {
  static const std::vector<std::string> pads = {
      "", " ", "\t", "\v", "\f", "\r", "\n", "\x85", "\xA0", "  \v"};
  static const std::vector<std::string> words = {
      "oslo", "bergen", "caf\xC3\xA9", "a\x80z", "\xC3", "\xE4\xB8",
      "\xF0\x9F\x98\x80", "0", "12.5", "n/ a"};
  std::string core;
  switch (rng->NextUint64(5)) {
    case 0:
      core = MarkerWords()[rng->NextUint64(MarkerWords().size())];
      break;
    case 1:
      core = header;
      break;
    case 2:
      for (int i = 0; i < 10; ++i) {
        core += words[rng->NextUint64(words.size())];
      }
      break;
    default:
      core = words[rng->NextUint64(words.size())];
      break;
  }
  for (char& c : core) {
    if (c >= 'a' && c <= 'z' && rng->Bernoulli(0.3)) {
      c = static_cast<char>(c - 'a' + 'A');
    }
  }
  return pads[rng->NextUint64(pads.size())] + core +
         pads[rng->NextUint64(pads.size())];
}

void ExpectSameResult(const SanitizeResult& got, const SanitizeResult& want) {
  ASSERT_EQ(got.any_modified, want.any_modified);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(got.columns[c].skip, want.columns[c].skip) << "column " << c;
    EXPECT_EQ(got.columns[c].cells_repaired, want.columns[c].cells_repaired)
        << "column " << c;
    EXPECT_EQ(got.columns[c].cells_clamped, want.columns[c].cells_clamped)
        << "column " << c;
    EXPECT_EQ(got.columns[c].name_repaired, want.columns[c].name_repaired)
        << "column " << c;
  }
  EXPECT_EQ(got.table.id(), want.table.id());
  ASSERT_EQ(got.table.num_columns(), want.table.num_columns());
  for (int c = 0; c < want.table.num_columns(); ++c) {
    EXPECT_EQ(got.table.column(c).name, want.table.column(c).name);
    EXPECT_EQ(got.table.column(c).values, want.table.column(c).values)
        << "column " << c;
  }
}

// A random dirty table and random sanitizer options for one trial.
Table RandomTable(int trial, util::Rng* rng, SanitizerOptions* options) {
  static const std::vector<std::string> headers = {
      "city", "City ", "n/a", "", "caf\xC3\xA9", "bad\xC3"};
  options->repair_utf8 = rng->Bernoulli(0.8);
  const size_t clamps[] = {0, 1, 6, 24, 4096};
  options->max_cell_bytes = clamps[rng->NextUint64(5)];
  options->max_null_ratio = rng->UniformDouble(0.0, 1.0);
  options->header_like_ratio = rng->UniformDouble(0.0, 1.0);
  Table table("t" + std::to_string(trial));
  const uint64_t num_columns = 1 + rng->NextUint64(6);
  for (uint64_t c = 0; c < num_columns; ++c) {
    Column column;
    column.name = headers[rng->NextUint64(headers.size())];
    const uint64_t rows = rng->NextUint64(30);
    for (uint64_t r = 0; r < rows; ++r) {
      column.values.push_back(RandomCell(column.name, rng));
    }
    table.AddColumn(std::move(column));
  }
  return table;
}

// Repair's overlay holds exactly the oracle's rewrites: for each
// annotatable column the rows whose bytes the oracle changed, ascending,
// with the oracle's bytes, and the oracle's name when it repaired it.
void ExpectOverlayMatchesOracle(const Table& table, const SanitizeResult& got,
                                const SanitizeResult& want) {
  ASSERT_EQ(got.overlay.columns.size(),
            static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const ColumnOverlay& overlay = *got.overlay.column(c);
    std::vector<size_t> rows;
    std::vector<std::string> values;
    std::string name = table.column(c).name;
    if (want.any_modified) {
      const Column& fixed = want.table.column(c);
      for (size_t r = 0; r < fixed.values.size(); ++r) {
        if (fixed.values[r] != table.column(c).values[r]) {
          rows.push_back(r);
          values.push_back(fixed.values[r]);
        }
      }
      name = fixed.name;
    }
    EXPECT_EQ(overlay.rows, rows) << "column " << c;
    EXPECT_EQ(overlay.values, values) << "column " << c;
    EXPECT_EQ(overlay.name.has_value(),
              want.columns[static_cast<size_t>(c)].name_repaired)
        << "column " << c;
    EXPECT_EQ(overlay.name.value_or(table.column(c).name), name)
        << "column " << c;
  }
}

class SanitizerDiffSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SanitizerDiffSeedTest, RandomTablesMatchOracle) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    SanitizerOptions options;
    const Table table = RandomTable(trial, &rng, &options);
    const ColumnSanitizer sanitizer(options);
    for (const Column& column : table.columns()) {
      ASSERT_EQ(sanitizer.Classify(column), OracleClassify(column, options));
    }
    ExpectSameResult(sanitizer.Sanitize(table), OracleSanitize(table, options));
    if (HasFatalFailure()) return;
  }
}

TEST_P(SanitizerDiffSeedTest, OverlayMatchesOracle) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    SanitizerOptions options;
    const Table table = RandomTable(trial, &rng, &options);
    const ColumnSanitizer sanitizer(options);
    const SanitizeResult want = OracleSanitize(table, options);
    const SanitizeResult got = sanitizer.Repair(table);
    ASSERT_EQ(got.any_modified, want.any_modified);
    EXPECT_EQ(got.table.num_columns(), 0);
    for (size_t c = 0; c < want.columns.size(); ++c) {
      EXPECT_EQ(got.columns[c].skip, want.columns[c].skip);
      EXPECT_EQ(got.columns[c].cells_repaired, want.columns[c].cells_repaired);
      EXPECT_EQ(got.columns[c].cells_clamped, want.columns[c].cells_clamped);
    }
    ExpectOverlayMatchesOracle(table, got, want);
    if (HasFailure()) {
      FAIL() << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SanitizerDiffSeedTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

}  // namespace
}  // namespace doduo::table
