// Differential test of ParseCsv against the byte-at-a-time parser it
// replaced (csv_oracle.h): equal rows on success, equal Status code and
// message on failure, for every byte next to every special character and
// for random quote / comma / CR / LF / CRLF / BOM grids and random bytes.

#include <string>
#include <vector>

#include "doduo/util/csv.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "util/csv_oracle.h"

namespace doduo::util {
namespace {

::testing::AssertionResult SameParse(const std::string& text) {
  const Result<CsvRows> got = ParseCsv(text);
  const Result<CsvRows> want = OracleParseCsv(text);
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "ok " << got.ok() << " vs oracle " << want.ok() << " on '"
           << text << "'";
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure()
             << got.status().ToString() << " vs oracle "
             << want.status().ToString() << " on '" << text << "'";
    }
    return ::testing::AssertionSuccess();
  }
  if (got.value() != want.value()) {
    return ::testing::AssertionFailure() << "rows differ on '" << text << "'";
  }
  return ::testing::AssertionSuccess();
}

TEST(CsvDiffTest, EveryByteAtEveryPositionMatchesOracle) {
  // Each template's '#' is replaced by the byte under test: the start and
  // end of the text, inside and after unquoted and quoted cells, next to
  // CR, LF, CRLF and a BOM.
  const std::vector<std::string> templates = {
      "#",          "#,a",        "a#",          "a#b,c\n",
      "a,#\nb,c",   "\"#\"",      "\"a#b\",c",   "\"a\"#",
      "\"a\"#\n",   "#\"a\"",     "a,\"#\"\"\"", "\"\"#",
      "a\r#",       "a\n#",       "a\r\n#",      "#\r\nb",
      "\xEF\xBB\xBF#", "\xEF\xBB#", "#\xEF\xBB\xBF", "a,b\n#,d\n",
      "\"a\r#\"",   "\"a\n#\n\"", "#,",          ",#,",
  };
  // Long unquoted runs put the byte at every offset of an 8-byte word.
  std::vector<std::string> patterns = templates;
  for (size_t offset = 0; offset < 17; ++offset) {
    patterns.push_back(std::string(offset, 'a') + "#" + std::string(20, 'b') +
                       ",c\n");
    patterns.push_back("x," + std::string(offset, 'a') + "#");
  }
  for (const std::string& pattern : patterns) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string text;
      for (char c : pattern) {
        if (c == '#') {
          text.push_back(static_cast<char>(byte));
        } else {
          text.push_back(c);
        }
      }
      ASSERT_TRUE(SameParse(text)) << "byte " << byte;
    }
  }
}

class CsvDiffSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvDiffSeedTest, RandomGridsMatchOracle) {
  // Texts assembled from the pieces that steer the parser, so quoting
  // errors, CRLF pairs and BOMs come up often.
  const std::vector<std::string> pieces = {
      ",", "\"", "\"\"", "\r", "\n", "\r\n", "\xEF\xBB\xBF", "a", "bc",
      " ", "\x80", "\xC3", "null", "hello world, again"};
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    if (rng.Bernoulli(0.2)) text = "\xEF\xBB\xBF";
    const size_t length = rng.NextUint64(40);
    for (size_t i = 0; i < length; ++i) {
      text += pieces[rng.NextUint64(pieces.size())];
    }
    ASSERT_TRUE(SameParse(text)) << "trial " << trial;
  }
}

TEST_P(CsvDiffSeedTest, WrittenGridsMatchOracle) {
  // Well-formed CSV from WriteCsvString: ragged rows, quoted cells with
  // embedded delimiters, and long unquoted runs.
  Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 200; ++trial) {
    CsvRows rows(1 + rng.NextUint64(20));
    for (auto& row : rows) {
      row.resize(1 + rng.NextUint64(6));
      for (std::string& cell : row) {
        const size_t length = rng.NextUint64(40);
        for (size_t i = 0; i < length; ++i) {
          const uint64_t pick = rng.NextUint64(10);
          cell.push_back(pick == 0   ? ','
                         : pick == 1 ? '"'
                         : pick == 2 ? '\n'
                                     : static_cast<char>('a' + pick));
        }
      }
    }
    std::string text = WriteCsvString(rows);
    if (rng.Bernoulli(0.5)) text.pop_back();  // no trailing newline
    ASSERT_TRUE(SameParse(text)) << "trial " << trial;
  }
}

TEST_P(CsvDiffSeedTest, RandomBytesMatchOracle) {
  // The byte stream of csv_fuzz_test's crash check, compared instead of
  // only survived.
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t length = rng.NextUint64(200);
    std::string text;
    for (size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    ASSERT_TRUE(SameParse(text)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvDiffSeedTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

}  // namespace
}  // namespace doduo::util
