// Test oracle for the column sanitizer: the IsNullMarker, Classify and
// Sanitize that built ToLower(Trim(value)) strings for every cell and
// re-validated every cell in the rewrite pass, kept as they were (minus
// the metrics). The allocation-free scan must give the same skip reasons,
// repair and clamp counts and repaired bytes on every input.

#ifndef DODUO_TESTS_TABLE_SANITIZER_ORACLE_H_
#define DODUO_TESTS_TABLE_SANITIZER_ORACLE_H_

#include <array>
#include <string>

#include "doduo/table/sanitizer.h"
#include "doduo/table/table.h"
#include "doduo/util/string_util.h"

namespace doduo::table {

inline bool OracleIsNullMarker(const std::string& value) {
  const std::string t = util::ToLower(util::Trim(value));
  if (t.empty()) return true;
  static constexpr std::array<const char*, 8> kMarkers = {
      "null", "none", "n/a", "na", "nan", "nil", "-", "?"};
  for (const char* marker : kMarkers) {
    if (t == marker) return true;
  }
  return false;
}

inline SkipReason OracleClassify(const Column& column,
                                 const SanitizerOptions& options) {
  if (column.values.empty()) return SkipReason::kEmptyColumn;
  size_t nulls = 0;
  size_t header_echoes = 0;
  const std::string header = util::ToLower(util::Trim(column.name));
  for (const std::string& value : column.values) {
    if (OracleIsNullMarker(value)) {
      ++nulls;
    } else if (!header.empty() &&
               util::ToLower(util::Trim(value)) == header) {
      ++header_echoes;
    }
  }
  const size_t total = column.values.size();
  if (static_cast<double>(nulls) >
      options.max_null_ratio * static_cast<double>(total)) {
    return SkipReason::kMostlyNull;
  }
  const size_t non_null = total - nulls;
  if (non_null > 0 &&
      static_cast<double>(header_echoes) >=
          options.header_like_ratio * static_cast<double>(non_null)) {
    return SkipReason::kHeaderLike;
  }
  return SkipReason::kNone;
}

inline SanitizeResult OracleSanitize(const Table& table,
                                     const SanitizerOptions& options) {
  const auto fix_cell = [&](std::string* cell, ColumnReport* report) {
    if (options.repair_utf8 && !util::Utf8IsValid(*cell)) {
      *cell = util::Utf8Repair(*cell);
      ++report->cells_repaired;
    }
    if (options.max_cell_bytes > 0 && cell->size() > options.max_cell_bytes) {
      *cell = std::string(util::Utf8ClampBytes(*cell, options.max_cell_bytes));
      ++report->cells_clamped;
    }
  };
  SanitizeResult result;
  result.columns.resize(static_cast<size_t>(table.num_columns()));
  for (int i = 0; i < table.num_columns(); ++i) {
    const Column& column = table.column(i);
    ColumnReport& report = result.columns[static_cast<size_t>(i)];
    report.skip = OracleClassify(column, options);
    if (report.skip != SkipReason::kNone) continue;
    if (options.repair_utf8 && !util::Utf8IsValid(column.name)) {
      report.name_repaired = true;
    }
    for (const std::string& value : column.values) {
      if (options.repair_utf8 && !util::Utf8IsValid(value)) {
        ++report.cells_repaired;
      } else if (options.max_cell_bytes > 0 &&
                 value.size() > options.max_cell_bytes) {
        ++report.cells_clamped;
      }
    }
    if (report.modified()) result.any_modified = true;
  }
  if (!result.any_modified) return result;
  result.table = table;
  for (int i = 0; i < table.num_columns(); ++i) {
    ColumnReport& report = result.columns[static_cast<size_t>(i)];
    if (report.skip != SkipReason::kNone || !report.modified()) continue;
    Column& column = result.table.mutable_column(i);
    report = ColumnReport{};
    if (options.repair_utf8 && !util::Utf8IsValid(column.name)) {
      column.name = util::Utf8Repair(column.name);
      report.name_repaired = true;
    }
    for (std::string& value : column.values) fix_cell(&value, &report);
  }
  return result;
}

}  // namespace doduo::table

#endif  // DODUO_TESTS_TABLE_SANITIZER_ORACLE_H_
