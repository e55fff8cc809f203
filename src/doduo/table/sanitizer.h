#ifndef DODUO_TABLE_SANITIZER_H_
#define DODUO_TABLE_SANITIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "doduo/table/table.h"

namespace doduo::table {

/// Why a column was excluded from annotation. Values are part of the wire
/// and CLI contract (doduo_serve encodes them as u32, doduo_cli prints
/// SkipReasonName); only append, never renumber.
enum class SkipReason : int {
  kNone = 0,        // column is annotatable
  kEmptyColumn = 1, // no values at all
  kMostlyNull = 2,  // null/empty marker ratio above max_null_ratio
  kHeaderLike = 3,  // values mostly echo the header name (repeated header
                    // rows glued into the data region)
};

/// Stable machine-readable token for a reason ("", "empty_column",
/// "mostly_null", "header_like"). Unknown values map to "unknown".
const char* SkipReasonName(SkipReason reason);

struct SanitizerOptions {
  /// Cells longer than this many bytes are clamped (on a code-point
  /// boundary, after UTF-8 repair). 0 disables clamping.
  size_t max_cell_bytes = 4096;
  /// Repair ill-formed UTF-8 in headers and cells to U+FFFD.
  bool repair_utf8 = true;
  /// Skip a column when more than this fraction of its cells are empty or
  /// a null marker ("null", "n/a", "nan", "-", ...). 1.0 only skips
  /// all-null columns.
  double max_null_ratio = 0.9;
  /// Skip a column when at least this fraction of its non-null cells
  /// case-insensitively equal the column's own header name.
  double header_like_ratio = 0.5;
};

/// Per-column result of a sanitizer pass.
struct ColumnReport {
  SkipReason skip = SkipReason::kNone;
  size_t cells_repaired = 0;  // ill-formed UTF-8 cells rewritten
  size_t cells_clamped = 0;   // over-length cells truncated
  bool name_repaired = false;

  bool modified() const {
    return cells_repaired > 0 || cells_clamped > 0 || name_repaired;
  }
};

/// Result of sanitizing a whole table. `overlay` holds, for every
/// annotatable column, the cells the pass rewrote (rows ascending, bytes
/// after UTF-8 repair and clamping) and its repaired name; clean and
/// skipped columns have empty entries. `table` is the input with `overlay`
/// applied: only Sanitize fills it, and only when `any_modified` is true;
/// callers keep using the original table otherwise, which guarantees clean
/// input flows through byte-identical.
struct SanitizeResult {
  TableOverlay overlay;
  Table table;
  std::vector<ColumnReport> columns;  // one entry per input column
  bool any_modified = false;

  size_t num_skipped() const;
};

/// Classifies each column of a dirty table as annotate / skip-with-reason
/// and cleans the annotatable ones (UTF-8 repair + cell clamping) so the
/// tokenizer and serializer downstream never see ill-formed bytes. The
/// pass never rejects a whole table: the worst outcome for a column is a
/// machine-readable skip reason.
///
/// Cells are compared in the C locale whatever the process locale is:
/// whitespace is ' ' and '\t' '\n' '\v' '\f' '\r', case folding maps only
/// 'A'-'Z', and every byte >= 0x80 is an ordinary non-space byte. The scan
/// works on views of the cells and allocates nothing per cell; only a
/// repaired cell gets bytes of its own (DESIGN §15).
class ColumnSanitizer {
 public:
  explicit ColumnSanitizer(SanitizerOptions options = {});

  /// Classifies every column and repairs the annotatable ones into the
  /// result's overlay, leaving `table` empty: its cost and allocations
  /// scale with the repaired cells, not with the table. The annotate path
  /// serializes through the overlay (TableSerializer::SerializeTable).
  SanitizeResult Repair(const Table& table) const;

  /// Repair, plus the input with the overlay applied in `table` when
  /// anything was repaired: a materializing wrapper for callers that need a
  /// sanitized Table, today only perfbench's replay of the sanitize stage.
  /// Skipped columns keep their original content in the returned table
  /// (they are not annotated, so cleaning them would only churn bytes).
  SanitizeResult Sanitize(const Table& table) const;

  /// Classifies one column without modifying it.
  SkipReason Classify(const Column& column) const;

  const SanitizerOptions& options() const { return options_; }

 private:
  SanitizerOptions options_;
};

/// True when `value`, trimmed and lowercased (C locale), is empty or a
/// conventional null marker ("null", "none", "n/a", "na", "nan", "nil",
/// "-", "?"). Allocates nothing.
bool IsNullMarker(std::string_view value);

}  // namespace doduo::table

#endif  // DODUO_TABLE_SANITIZER_H_
