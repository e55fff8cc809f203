#include "doduo/table/table.h"

#include <algorithm>
#include <utility>

#include "doduo/util/check.h"

namespace doduo::table {

int Table::num_rows() const {
  size_t rows = 0;
  for (const Column& column : columns_) {
    rows = std::max(rows, column.values.size());
  }
  return static_cast<int>(rows);
}

const Column& Table::column(int i) const {
  DODUO_CHECK(i >= 0 && i < num_columns());
  return columns_[static_cast<size_t>(i)];
}

Column& Table::mutable_column(int i) {
  DODUO_CHECK(i >= 0 && i < num_columns());
  return columns_[static_cast<size_t>(i)];
}

void Table::ShuffleRows(util::Rng* rng) {
  const int rows = num_rows();
  if (rows <= 1) return;
  std::vector<size_t> permutation(static_cast<size_t>(rows));
  for (size_t i = 0; i < permutation.size(); ++i) permutation[i] = i;
  rng->Shuffle(&permutation);
  for (Column& column : columns_) {
    std::vector<std::string> shuffled;
    shuffled.reserve(column.values.size());
    for (size_t new_row = 0; new_row < permutation.size(); ++new_row) {
      const size_t old_row = permutation[new_row];
      // Each source row is read once, so its cell can be moved.
      if (old_row < column.values.size()) {
        shuffled.push_back(std::move(column.values[old_row]));
      }
    }
    column.values = std::move(shuffled);
  }
}

void Table::PermuteColumns(const std::vector<int>& permutation) {
  DODUO_CHECK_EQ(static_cast<int>(permutation.size()), num_columns());
  std::vector<Column> reordered;
  reordered.reserve(columns_.size());
  std::vector<bool> seen(columns_.size(), false);
  for (int src : permutation) {
    DODUO_CHECK(src >= 0 && src < num_columns());
    DODUO_CHECK(!seen[static_cast<size_t>(src)])
        << "permutation is not a bijection";
    seen[static_cast<size_t>(src)] = true;
    reordered.push_back(std::move(columns_[static_cast<size_t>(src)]));
  }
  columns_ = std::move(reordered);
}

util::Result<Table> TableFromCsvRows(
    const std::vector<std::vector<std::string>>& rows, bool has_header,
    std::string id) {
  if (rows.empty()) {
    return util::Status::InvalidArgument("no rows");
  }
  const size_t width = rows[0].size();
  if (width == 0) {
    return util::Status::InvalidArgument("zero-width table");
  }
  const size_t first = has_header ? 1 : 0;
  std::vector<Column> columns(width);
  for (size_t c = 0; c < width; ++c) {
    if (has_header) columns[c].name = rows[0][c];
    columns[c].values.reserve(rows.size() - first);
  }
  for (size_t r = first; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    for (size_t c = 0; c < width && c < row.size(); ++c) {
      columns[c].values.push_back(row[c]);
    }
  }
  Table table(std::move(id));
  for (Column& column : columns) table.AddColumn(std::move(column));
  return table;
}

}  // namespace doduo::table
