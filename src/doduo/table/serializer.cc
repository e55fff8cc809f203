#include "doduo/table/serializer.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "doduo/util/check.h"
#include "doduo/util/metrics.h"

namespace doduo::table {

using text::Vocab;

namespace {

void Push(SerializedTable* out, int token_id, int row_id) {
  out->token_ids.push_back(token_id);
  out->row_ids.push_back(row_id);
}

// Stage metrics (DESIGN §10). Resolved once; recording is atomic adds only.
struct SerializerMetrics {
  util::Histogram* serialize_us = util::GetHistogram("serializer.serialize_us");
  util::Counter* tables = util::GetCounter("serializer.tables_total");
  util::Counter* tokens = util::GetCounter("serializer.tokens_total");
  util::Counter* spans_truncated =
      util::GetCounter("serializer.spans_truncated_total");
};

SerializerMetrics& Metrics() {
  static SerializerMetrics metrics;
  return metrics;
}

util::Status BadColumnIndex(const Table& table, int column) {
  return util::Status::InvalidArgument(
      "column index " + std::to_string(column) + " out of range for table '" +
      table.id() + "' with " + std::to_string(table.num_columns()) +
      " columns");
}

// The column-count checks of a table-wise serialization of `n` columns of
// `table`.
util::Status CheckColumnCount(const Table& table, int n,
                              int max_total_tokens) {
  if (n <= 0) {
    return util::Status::InvalidArgument("table '" + table.id() +
                                         "' has no columns");
  }
  // n [CLS] markers + the trailing [SEP] are always kept.
  if (max_total_tokens - n - 1 < 0) {
    return util::Status::InvalidArgument(
        "table '" + table.id() + "' has " + std::to_string(n) +
        " columns but max_total_tokens=" + std::to_string(max_total_tokens) +
        " fits at most " + std::to_string(max_total_tokens - 1) +
        " column [CLS] markers plus the trailing [SEP]");
  }
  return util::Status::Ok();
}

}  // namespace

TableSerializer::TableSerializer(const text::WordPieceTokenizer* tokenizer,
                                 SerializerOptions options)
    : tokenizer_(tokenizer), options_(options) {
  DODUO_CHECK(tokenizer != nullptr);
  DODUO_CHECK_GT(options.max_tokens_per_column, 0);
  DODUO_CHECK_GT(options.max_total_tokens, 2);
}

void TableSerializer::AppendColumnTokens(const Column& column,
                                         const ColumnOverlay* overlay,
                                         int budget,
                                         SerializedTable* out) const {
  int used = 0;
  // Tokenization stops at the remaining budget: a single enormous header
  // or cell must not be WordPiece'd in full just to throw the tail away.
  // EncodeBudgeted returns an exact prefix of Encode, so output sequences
  // are unchanged; a cut span only shows up in the truncation counter.
  const auto append_span = [&](std::string_view text, int row_id) {
    if (used >= budget) return false;
    bool truncated = false;
    for (int id : tokenizer_->EncodeBudgeted(
             text, static_cast<size_t>(budget - used), &truncated)) {
      Push(out, id, row_id);
      ++used;
    }
    if (truncated) Metrics().spans_truncated->Increment();
    return used < budget;
  };
  const std::string& name = overlay != nullptr && overlay->name.has_value()
                                ? *overlay->name
                                : column.name;
  if (options_.include_metadata && !name.empty()) {
    if (!append_span(name, -1)) return;
  }
  // One cursor over the overlay's ascending rows: a repaired cell is read
  // from the overlay, every other cell from the column itself.
  size_t next = 0;
  for (size_t row = 0; row < column.values.size(); ++row) {
    std::string_view cell = column.values[row];
    if (overlay != nullptr && next < overlay->rows.size() &&
        overlay->rows[next] == row) {
      cell = overlay->values[next++];
    }
    if (!append_span(cell, static_cast<int>(row))) break;
  }
}

util::Status TableSerializer::ValidateTable(const Table& table) const {
  return CheckColumnCount(table, table.num_columns(),
                          options_.max_total_tokens);
}

util::Result<SerializedTable> TableSerializer::SerializeTable(
    const Table& table) const {
  std::vector<int> columns(static_cast<size_t>(table.num_columns()));
  std::iota(columns.begin(), columns.end(), 0);
  return SerializeTable(table, columns);
}

util::Result<SerializedTable> TableSerializer::SerializeTable(
    const Table& table, std::span<const int> columns,
    const TableOverlay* overlay) const {
  util::ScopedTimer timer(Metrics().serialize_us, "serializer.serialize");
  const int n = static_cast<int>(columns.size());
  util::Status valid =
      CheckColumnCount(table, n, options_.max_total_tokens);
  if (!valid.ok()) return valid;
  for (int column : columns) {
    if (column < 0 || column >= table.num_columns()) {
      return BadColumnIndex(table, column);
    }
  }
  if (overlay != nullptr && !overlay->columns.empty() &&
      overlay->columns.size() != static_cast<size_t>(table.num_columns())) {
    return util::Status::InvalidArgument(
        "overlay has " + std::to_string(overlay->columns.size()) +
        " columns but table '" + table.id() + "' has " +
        std::to_string(table.num_columns()));
  }
  // Budget per column under the total limit.
  const int available = options_.max_total_tokens - n - 1;
  const int budget =
      std::min(options_.max_tokens_per_column, std::max(0, available / n));

  SerializedTable out;
  out.token_ids.reserve(static_cast<size_t>(options_.max_total_tokens));
  out.row_ids.reserve(static_cast<size_t>(options_.max_total_tokens));
  for (int column : columns) {
    out.cls_positions.push_back(
        static_cast<int64_t>(out.token_ids.size()));
    Push(&out, Vocab::kClsId, -1);
    AppendColumnTokens(table.column(column),
                       overlay != nullptr ? overlay->column(column) : nullptr,
                       budget, &out);
  }
  Push(&out, Vocab::kSepId, -1);
  Metrics().tables->Increment();
  Metrics().tokens->Increment(out.token_ids.size());
  return out;
}

util::Result<SerializedTable> TableSerializer::SerializeColumn(
    const Table& table, int column) const {
  util::ScopedTimer timer(Metrics().serialize_us, "serializer.serialize");
  if (column < 0 || column >= table.num_columns()) {
    return BadColumnIndex(table, column);
  }
  const int budget = std::min(options_.max_tokens_per_column,
                              options_.max_total_tokens - 2);
  SerializedTable out;
  out.cls_positions.push_back(0);
  Push(&out, Vocab::kClsId, -1);
  AppendColumnTokens(table.column(column), nullptr, budget, &out);
  Push(&out, Vocab::kSepId, -1);
  Metrics().tables->Increment();
  Metrics().tokens->Increment(out.token_ids.size());
  return out;
}

util::Result<SerializedTable> TableSerializer::SerializeColumnPair(
    const Table& table, int column_a, int column_b) const {
  util::ScopedTimer timer(Metrics().serialize_us, "serializer.serialize");
  if (column_a < 0 || column_a >= table.num_columns()) {
    return BadColumnIndex(table, column_a);
  }
  if (column_b < 0 || column_b >= table.num_columns()) {
    return BadColumnIndex(table, column_b);
  }
  const int budget = std::min(options_.max_tokens_per_column,
                              std::max(1, (options_.max_total_tokens - 4) / 2));
  SerializedTable out;
  for (int column : {column_a, column_b}) {
    out.cls_positions.push_back(
        static_cast<int64_t>(out.token_ids.size()));
    Push(&out, Vocab::kClsId, -1);
    AppendColumnTokens(table.column(column), nullptr, budget, &out);
    Push(&out, Vocab::kSepId, -1);
  }
  Metrics().tables->Increment();
  Metrics().tokens->Increment(out.token_ids.size());
  return out;
}

int TableSerializer::ChunkCap() const {
  return std::max(1, (options_.max_total_tokens - 1) / 2);
}

int TableSerializer::MaxSupportedColumns() const {
  // Each column costs [CLS] + max_tokens_per_column; plus the final [SEP].
  return (options_.max_total_tokens - 1) /
         (options_.max_tokens_per_column + 1);
}

}  // namespace doduo::table
