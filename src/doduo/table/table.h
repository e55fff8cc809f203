#ifndef DODUO_TABLE_TABLE_H_
#define DODUO_TABLE_TABLE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "doduo/util/rng.h"
#include "doduo/util/status.h"

namespace doduo::table {

/// One column: an optional header name and the cell values as strings. All
/// cell values are strings (the paper casts every cell to text; see
/// Section 3.1 of the paper and the numeric analysis in Table 5).
struct Column {
  std::string name;  // empty when the table has no usable header
  std::vector<std::string> values;
};

/// A relational table: an id and an ordered list of columns.
class Table {
 public:
  Table() = default;
  explicit Table(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// Maximum number of values across columns (columns may be ragged).
  int num_rows() const;

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  const Column& column(int i) const;
  Column& mutable_column(int i);
  const std::vector<Column>& columns() const { return columns_; }

  /// Permutes the values of every column with the same row permutation
  /// (only meaningful when columns are aligned; ragged tails stay ragged).
  void ShuffleRows(util::Rng* rng);

  /// Reorders columns by `permutation` (a bijection on [0, num_columns)).
  void PermuteColumns(const std::vector<int>& permutation);

 private:
  std::string id_;
  std::vector<Column> columns_;
};

/// Replacement bytes for some cells, and possibly the name, of one column,
/// read in place of the column's own without copying it: `values[i]`
/// replaces row `rows[i]`, and `rows` is strictly ascending so a reader
/// walks it with one cursor. An overlay with no rows and no name changes
/// nothing.
struct ColumnOverlay {
  std::vector<size_t> rows;
  std::vector<std::string> values;  // parallel to `rows`
  std::optional<std::string> name;

  bool empty() const { return rows.empty() && !name.has_value(); }
};

/// Overlays for the columns of one Table: empty, or one entry per column
/// in column order.
struct TableOverlay {
  std::vector<ColumnOverlay> columns;

  /// Column `c`'s overlay, or nullptr when the table has none.
  const ColumnOverlay* column(int c) const {
    return columns.empty() ? nullptr : &columns[static_cast<size_t>(c)];
  }
};

/// Builds a Table from parsed CSV rows; when `has_header` the first row
/// provides column names. Fails on empty input or ragged header.
[[nodiscard]] util::Result<Table> TableFromCsvRows(
    const std::vector<std::vector<std::string>>& rows, bool has_header,
    std::string id);

}  // namespace doduo::table

#endif  // DODUO_TABLE_TABLE_H_
