#include "doduo/table/serializer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "doduo/util/metrics.h"
#include "gtest/gtest.h"

namespace doduo::table {
namespace {

using text::Vocab;

class SerializerTest : public ::testing::Test {
 protected:
  SerializerTest() {
    for (const char* token :
         {"happy", "feet", "cars", "george", "miller", "john", "lasseter",
          "usa", "uk", "film", "director", "country"}) {
      vocab_.AddToken(token);
    }
  }

  Table MakeTable() const {
    Table t("t");
    t.AddColumn({"film", {"Happy Feet", "Cars"}});
    t.AddColumn({"director", {"George Miller", "John Lasseter"}});
    t.AddColumn({"country", {"USA", "UK"}});
    return t;
  }

  Vocab vocab_;
};

TEST_F(SerializerTest, TableWiseHasOneClsPerColumnAndTrailingSep) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  SerializedTable s = serializer.SerializeTable(MakeTable()).value();
  ASSERT_EQ(s.cls_positions.size(), 3u);
  for (int64_t pos : s.cls_positions) {
    EXPECT_EQ(s.token_ids[static_cast<size_t>(pos)], Vocab::kClsId);
  }
  EXPECT_EQ(s.token_ids.back(), Vocab::kSepId);
  // Exactly 3 CLS markers and 1 SEP in the whole sequence.
  EXPECT_EQ(std::count(s.token_ids.begin(), s.token_ids.end(),
                       Vocab::kClsId),
            3);
  EXPECT_EQ(std::count(s.token_ids.begin(), s.token_ids.end(),
                       Vocab::kSepId),
            1);
}

TEST_F(SerializerTest, OversizedSingleCellIsTruncatedWithMetricBump) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  // Budget: max_total_tokens=8, one column -> 6 content tokens.
  TableSerializer serializer(&tokenizer,
                             {.max_tokens_per_column = 32,
                              .max_total_tokens = 8});
  Table t("big");
  // One cell holding far more words than the whole budget.
  std::string huge;
  for (int i = 0; i < 50; ++i) huge += "happy feet ";
  t.AddColumn({"film", {huge}});
  auto* truncations =
      util::GetCounter("serializer.spans_truncated_total");
  const uint64_t before = truncations->value();
  SerializedTable s = serializer.SerializeTable(t).value();
  // [CLS] + 6 content tokens + [SEP]: the giant cell is cut, not an error.
  ASSERT_EQ(s.token_ids.size(), 8u);
  EXPECT_EQ(s.token_ids.front(), Vocab::kClsId);
  EXPECT_EQ(s.token_ids.back(), Vocab::kSepId);
  EXPECT_EQ(s.token_ids[1], vocab_.Id("happy"));
  EXPECT_EQ(truncations->value(), before + 1);
}

TEST_F(SerializerTest, BudgetedTokenizationMatchesFullTokenization) {
  // The budget-aware path must be byte-identical to tokenize-then-cut.
  text::WordPieceTokenizer tokenizer(&vocab_);
  Table t = MakeTable();
  for (int budget : {8, 12, 20, 160}) {
    TableSerializer serializer(&tokenizer,
                               {.max_total_tokens = budget});
    SerializedTable s = serializer.SerializeTable(t).value();
    // Reference: full per-cell encode, cut at the per-column budget.
    const int per_column = std::min(
        32, (budget - t.num_columns() - 1) / t.num_columns());
    std::vector<int> want;
    for (const Column& column : t.columns()) {
      want.push_back(Vocab::kClsId);
      std::vector<int> content;
      for (const std::string& value : column.values) {
        const auto ids = tokenizer.Encode(value);
        content.insert(content.end(), ids.begin(), ids.end());
        if (content.size() >= static_cast<size_t>(per_column)) break;
      }
      if (content.size() > static_cast<size_t>(per_column)) {
        content.resize(static_cast<size_t>(per_column));
      }
      want.insert(want.end(), content.begin(), content.end());
    }
    want.push_back(Vocab::kSepId);
    EXPECT_EQ(s.token_ids, want) << "budget=" << budget;
  }
}

TEST_F(SerializerTest, TableWiseContainsColumnValuesInOrder) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  SerializedTable s = serializer.SerializeTable(MakeTable()).value();
  // Column 0 tokens appear between cls_positions[0] and cls_positions[1].
  std::vector<int> col0(s.token_ids.begin() + s.cls_positions[0] + 1,
                        s.token_ids.begin() + s.cls_positions[1]);
  EXPECT_EQ(col0, (std::vector<int>{vocab_.Id("happy"), vocab_.Id("feet"),
                                    vocab_.Id("cars")}));
}

TEST_F(SerializerTest, MaxTokensPerColumnTruncates) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  SerializerOptions options;
  options.max_tokens_per_column = 1;
  TableSerializer serializer(&tokenizer, options);
  SerializedTable s = serializer.SerializeTable(MakeTable()).value();
  // 3 × ([CLS] + 1 token) + [SEP].
  EXPECT_EQ(s.token_ids.size(), 7u);
}

TEST_F(SerializerTest, TotalBudgetShrinksPerColumnShare) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  SerializerOptions options;
  options.max_tokens_per_column = 100;
  options.max_total_tokens = 10;  // 3 cols: (10 - 3 - 1)/3 = 2 tokens each
  TableSerializer serializer(&tokenizer, options);
  SerializedTable s = serializer.SerializeTable(MakeTable()).value();
  EXPECT_LE(s.token_ids.size(), 10u);
  ASSERT_EQ(s.cls_positions.size(), 3u);
  EXPECT_EQ(s.cls_positions[1] - s.cls_positions[0], 3);  // CLS + 2 tokens
}

TEST_F(SerializerTest, MetadataPrependsColumnName) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  SerializerOptions options;
  options.include_metadata = true;
  TableSerializer serializer(&tokenizer, options);
  SerializedTable s = serializer.SerializeTable(MakeTable()).value();
  EXPECT_EQ(s.token_ids[static_cast<size_t>(s.cls_positions[0]) + 1],
            vocab_.Id("film"));
  EXPECT_EQ(s.token_ids[static_cast<size_t>(s.cls_positions[1]) + 1],
            vocab_.Id("director"));
}

TEST_F(SerializerTest, SingleColumnSerialization) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  SerializedTable s = serializer.SerializeColumn(MakeTable(), 1).value();
  ASSERT_EQ(s.cls_positions.size(), 1u);
  EXPECT_EQ(s.token_ids.front(), Vocab::kClsId);
  EXPECT_EQ(s.token_ids.back(), Vocab::kSepId);
  EXPECT_EQ(s.token_ids[1], vocab_.Id("george"));
}

TEST_F(SerializerTest, ColumnPairSerialization) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  SerializedTable s = serializer.SerializeColumnPair(MakeTable(), 0, 2).value();
  ASSERT_EQ(s.cls_positions.size(), 2u);
  EXPECT_EQ(s.token_ids[static_cast<size_t>(s.cls_positions[0])],
            Vocab::kClsId);
  EXPECT_EQ(s.token_ids[static_cast<size_t>(s.cls_positions[1])],
            Vocab::kClsId);
  // Two [SEP]s: one after each column.
  EXPECT_EQ(std::count(s.token_ids.begin(), s.token_ids.end(),
                       Vocab::kSepId),
            2);
  EXPECT_EQ(s.token_ids.back(), Vocab::kSepId);
}

TEST_F(SerializerTest, MaxSupportedColumnsMatchesPaperFormula) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  // Paper Table 8 with 512-token BERT: 8 tokens/col → 56 cols,
  // 16 → 30, 32 → 15.
  for (const auto& [per_col, expected] :
       std::vector<std::pair<int, int>>{{8, 56}, {16, 30}, {32, 15}}) {
    SerializerOptions options;
    options.max_tokens_per_column = per_col;
    options.max_total_tokens = 512;
    TableSerializer serializer(&tokenizer, options);
    EXPECT_EQ(serializer.MaxSupportedColumns(), expected) << per_col;
  }
}

TEST_F(SerializerTest, UnknownValuesBecomeUnk) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  Table t("t");
  t.AddColumn({"x", {"zzzunknownzzz"}});
  SerializedTable s = serializer.SerializeTable(t).value();
  EXPECT_EQ(s.token_ids[1], Vocab::kUnkId);
}

TEST_F(SerializerTest, EmptyColumnStillGetsCls) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  Table t("t");
  t.AddColumn({"empty", {}});
  t.AddColumn({"film", {"Cars"}});
  SerializedTable s = serializer.SerializeTable(t).value();
  ASSERT_EQ(s.cls_positions.size(), 2u);
  EXPECT_EQ(s.cls_positions[1] - s.cls_positions[0], 1);  // only the CLS
}

TEST_F(SerializerTest, ZeroColumnTableIsInvalidArgument) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  auto result = serializer.SerializeTable(Table("no_cols"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("no_cols"), std::string::npos);
}

TEST_F(SerializerTest, TooManyColumnsForBudgetIsInvalidArgument) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  SerializerOptions options;
  options.max_total_tokens = 8;  // fits at most 7 CLS markers + SEP
  TableSerializer serializer(&tokenizer, options);
  Table t("too_wide");
  for (int c = 0; c < 8; ++c) t.AddColumn({"x", {"usa"}});
  auto result = serializer.SerializeTable(t);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_total_tokens"),
            std::string::npos);
  // One fewer column still fits (with a zero value budget).
  Table ok_table("just_fits");
  for (int c = 0; c < 7; ++c) ok_table.AddColumn({"x", {"usa"}});
  EXPECT_TRUE(serializer.SerializeTable(ok_table).ok());
}

TEST_F(SerializerTest, BadColumnIndexIsInvalidArgument) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {});
  const Table t = MakeTable();
  for (int bad : {-1, 3, 100}) {
    auto single = serializer.SerializeColumn(t, bad);
    ASSERT_FALSE(single.ok()) << bad;
    EXPECT_EQ(single.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(single.status().message().find(std::to_string(bad)),
              std::string::npos);
    EXPECT_FALSE(serializer.SerializeColumnPair(t, 0, bad).ok()) << bad;
    EXPECT_FALSE(serializer.SerializeColumnPair(t, bad, 0).ok()) << bad;
  }
}

TEST_F(SerializerTest, ColumnListSerializesLikeASubsetTable) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {.max_tokens_per_column = 3,
                                          .max_total_tokens = 9,
                                          .include_metadata = true});
  const Table t = MakeTable();
  for (const std::vector<int>& columns :
       {std::vector<int>{0, 1, 2}, std::vector<int>{2, 0},
        std::vector<int>{1}, std::vector<int>{1, 1}}) {
    Table subset(t.id());
    for (int c : columns) subset.AddColumn(t.column(c));
    const SerializedTable want = serializer.SerializeTable(subset).value();
    const SerializedTable got = serializer.SerializeTable(t, columns).value();
    EXPECT_EQ(got.token_ids, want.token_ids);
    EXPECT_EQ(got.cls_positions, want.cls_positions);
    EXPECT_EQ(got.row_ids, want.row_ids);
  }
}

TEST_F(SerializerTest, ColumnListKeepsTheTableChecksAndMessages) {
  text::WordPieceTokenizer tokenizer(&vocab_);
  TableSerializer serializer(&tokenizer, {.max_total_tokens = 3});
  const Table t = MakeTable();
  // The count checks of a table of as many columns as the list holds.
  Table empty(t.id());
  EXPECT_EQ(serializer.SerializeTable(t, {}).status().message(),
            serializer.SerializeTable(empty).status().message());
  Table wide(t.id());
  for (int c = 0; c < 3; ++c) wide.AddColumn(t.column(c));
  const std::vector<int> all = {0, 1, 2};
  EXPECT_EQ(serializer.SerializeTable(t, all).status().message(),
            serializer.SerializeTable(wide).status().message());
  for (int bad : {-1, 3}) {
    const std::vector<int> columns = {0, bad};
    auto result = serializer.SerializeTable(t, columns);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(),
              serializer.SerializeColumn(t, bad).status().message());
  }
}

}  // namespace
}  // namespace doduo::table
