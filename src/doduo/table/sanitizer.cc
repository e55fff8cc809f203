#include "doduo/table/sanitizer.h"

#include <array>
#include <string_view>

#include "doduo/util/metrics.h"
#include "doduo/util/string_util.h"

namespace doduo::table {
namespace {

struct SanitizerMetrics {
  util::Counter* cells_repaired = util::GetCounter("sanitizer.cells_repaired");
  util::Counter* cells_clamped = util::GetCounter("sanitizer.cells_clamped");
  util::Counter* cols_skipped = util::GetCounter("sanitizer.cols_skipped");
  util::Counter* tables = util::GetCounter("sanitizer.tables");
};

SanitizerMetrics& Metrics() {
  static SanitizerMetrics metrics;
  return metrics;
}

/// Repairs `*cell` in place when ill-formed, then clamps it to
/// `max_bytes`. Returns flags for what happened.
struct CellFix {
  bool repaired = false;
  bool clamped = false;
};

CellFix FixCell(std::string* cell, const SanitizerOptions& options) {
  CellFix fix;
  if (options.repair_utf8 && !util::Utf8IsValid(*cell)) {
    *cell = util::Utf8Repair(*cell);
    fix.repaired = true;
  }
  if (options.max_cell_bytes > 0 && cell->size() > options.max_cell_bytes) {
    *cell = std::string(util::Utf8ClampBytes(*cell, options.max_cell_bytes));
    fix.clamped = true;
  }
  return fix;
}

// C-locale std::isspace and std::tolower: the classification contract is
// pinned to these whatever locale the process runs in.
constexpr bool IsSpaceC(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr unsigned char ToLowerC(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A'))
                              : c;
}

std::string_view TrimC(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsSpaceC(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && IsSpaceC(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

// ToLower(a) == ToLower(b), byte for byte, without building either.
bool EqualsFolded(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerC(static_cast<unsigned char>(a[i])) !=
        ToLowerC(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// `trimmed` is already trimmed; the markers are lowercase.
bool IsTrimmedNullMarker(std::string_view trimmed) {
  if (trimmed.empty()) return true;
  if (trimmed.size() > 4) return false;  // longer than every marker
  static constexpr std::array<std::string_view, 8> kMarkers = {
      "null", "none", "n/a", "na", "nan", "nil", "-", "?"};
  for (std::string_view marker : kMarkers) {
    if (EqualsFolded(trimmed, marker)) return true;
  }
  return false;
}

struct ColumnCounts {
  size_t nulls = 0;
  size_t header_echoes = 0;
};

// The one walk over a column's cells: null markers and header echoes for
// the skip decision and, when `fixes` is given, the rows whose cell is
// ill-formed UTF-8 (with repair on) or over the clamp length, the only
// cells the rewrite pass has to touch.
ColumnCounts ScanColumn(const Column& column, const SanitizerOptions& options,
                        std::vector<size_t>* fixes) {
  ColumnCounts counts;
  const std::string_view header = TrimC(column.name);
  for (size_t row = 0; row < column.values.size(); ++row) {
    const std::string& value = column.values[row];
    const std::string_view trimmed = TrimC(value);
    if (IsTrimmedNullMarker(trimmed)) {
      ++counts.nulls;
    } else if (!header.empty() && EqualsFolded(trimmed, header)) {
      ++counts.header_echoes;
    }
    if (fixes != nullptr &&
        ((options.repair_utf8 && !util::Utf8IsValid(value)) ||
         (options.max_cell_bytes > 0 &&
          value.size() > options.max_cell_bytes))) {
      fixes->push_back(row);
    }
  }
  return counts;
}

SkipReason Decide(const ColumnCounts& counts, size_t total,
                  const SanitizerOptions& options) {
  if (total == 0) return SkipReason::kEmptyColumn;
  if (static_cast<double>(counts.nulls) >
      options.max_null_ratio * static_cast<double>(total)) {
    return SkipReason::kMostlyNull;
  }
  const size_t non_null = total - counts.nulls;
  if (non_null > 0 &&
      static_cast<double>(counts.header_echoes) >=
          options.header_like_ratio * static_cast<double>(non_null)) {
    return SkipReason::kHeaderLike;
  }
  return SkipReason::kNone;
}

}  // namespace

const char* SkipReasonName(SkipReason reason) {
  switch (reason) {
    case SkipReason::kNone:
      return "";
    case SkipReason::kEmptyColumn:
      return "empty_column";
    case SkipReason::kMostlyNull:
      return "mostly_null";
    case SkipReason::kHeaderLike:
      return "header_like";
  }
  return "unknown";
}

bool IsNullMarker(std::string_view value) {
  return IsTrimmedNullMarker(TrimC(value));
}

ColumnSanitizer::ColumnSanitizer(SanitizerOptions options)
    : options_(options) {}

SkipReason ColumnSanitizer::Classify(const Column& column) const {
  return Decide(ScanColumn(column, options_, nullptr), column.values.size(),
                options_);
}

SanitizeResult ColumnSanitizer::Sanitize(const Table& table) const {
  Metrics().tables->Increment();
  SanitizeResult result;
  const size_t n = static_cast<size_t>(table.num_columns());
  result.columns.resize(n);

  // First pass: one walk per column classifies it and lists the cells that
  // need rewriting, so a clean table costs no copy at all and the second
  // pass validates nothing again.
  std::vector<std::vector<size_t>> fixes(n);
  std::vector<bool> rewrite(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Column& column = table.column(static_cast<int>(i));
    ColumnReport& report = result.columns[i];
    report.skip = Decide(ScanColumn(column, options_, &fixes[i]),
                         column.values.size(), options_);
    if (report.skip != SkipReason::kNone) {
      Metrics().cols_skipped->Increment();
      continue;  // skipped columns are left byte-for-byte as they came in
    }
    rewrite[i] = !fixes[i].empty() ||
                 (options_.repair_utf8 && !util::Utf8IsValid(column.name));
    if (rewrite[i]) result.any_modified = true;
  }
  if (!result.any_modified) return result;

  // Second pass: rewrite only the listed cells of the columns that need it.
  result.table = table;
  for (size_t i = 0; i < n; ++i) {
    if (!rewrite[i]) continue;
    ColumnReport& report = result.columns[i];
    Column& column = result.table.mutable_column(static_cast<int>(i));
    if (options_.repair_utf8 && !util::Utf8IsValid(column.name)) {
      column.name = util::Utf8Repair(column.name);
      report.name_repaired = true;
    }
    for (const size_t row : fixes[i]) {
      const CellFix fix = FixCell(&column.values[row], options_);
      if (fix.repaired) ++report.cells_repaired;
      if (fix.clamped) ++report.cells_clamped;
    }
    Metrics().cells_repaired->Increment(report.cells_repaired);
    Metrics().cells_clamped->Increment(report.cells_clamped);
  }
  return result;
}

size_t SanitizeResult::num_skipped() const {
  size_t count = 0;
  for (const ColumnReport& report : columns) {
    if (report.skip != SkipReason::kNone) ++count;
  }
  return count;
}

}  // namespace doduo::table
