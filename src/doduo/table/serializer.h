#ifndef DODUO_TABLE_SERIALIZER_H_
#define DODUO_TABLE_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "doduo/table/table.h"
#include "doduo/text/wordpiece_tokenizer.h"
#include "doduo/util/status.h"

namespace doduo::table {

/// A table rendered as a token-id sequence plus the positions of the
/// per-column [CLS] markers whose contextual embeddings become the column
/// representations (Section 4.2/4.3 of the paper).
struct SerializedTable {
  std::vector<int> token_ids;
  std::vector<int64_t> cls_positions;  // one entry per serialized column
  /// Row index of the cell each token came from; -1 for structural tokens
  /// ([CLS]/[SEP]) and column-name (metadata) tokens. Used by the TURL
  /// baseline's row-wise visibility matrix.
  std::vector<int> row_ids;
};

/// Serialization knobs. `max_tokens_per_column` is the paper's MaxToken/col
/// (Tables 8/11); `max_total_tokens` models the LM's input limit (512 for
/// BERT; smaller here). When the per-column budget does not fit, it is
/// reduced evenly so every column keeps its [CLS].
struct SerializerOptions {
  int max_tokens_per_column = 32;
  int max_total_tokens = 160;
  bool include_metadata = false;  // prepend the column name to its values
};

/// Converts tables into model input sequences.
///
/// Table-wise (DODUO):    [CLS] col1-tokens [CLS] col2-tokens ... [SEP]
/// Single-column:         [CLS] col-tokens [SEP]
/// Column-pair:           [CLS] colA-tokens [SEP] [CLS] colB-tokens [SEP]
///
/// Every Serialize* entry point validates its input and returns an
/// InvalidArgument Status (naming the table, column index, or token budget)
/// instead of aborting: zero-column tables, out-of-range column indices,
/// and tables with more columns than the token budget can carry all come
/// back as errors the caller can surface (DESIGN §10).
class TableSerializer {
 public:
  /// `tokenizer` must outlive the serializer.
  TableSerializer(const text::WordPieceTokenizer* tokenizer,
                  SerializerOptions options);

  /// The column-count checks of SerializeTable: InvalidArgument for a
  /// zero-column table or one with more columns than max_total_tokens - 1
  /// [CLS] markers can carry.
  [[nodiscard]] util::Status ValidateTable(const Table& table) const;

  /// DODUO's table-wise serialization: one [CLS] per column.
  [[nodiscard]] util::Result<SerializedTable> SerializeTable(const Table& table) const;

  /// Table-wise serialization of the listed columns of `table`, in list
  /// order, as if they were a table of their own (the column-chunk path of
  /// wide or partially skipped tables, without copying a subset table).
  /// When `overlay` is given (empty, or one entry per column of `table`),
  /// each column's name and cells are read through it: the result equals
  /// serializing `table` with the overlay applied, without that copy. The
  /// robust annotate path passes ColumnSanitizer::Repair's overlay here.
  /// The column-count checks of ValidateTable apply to the list; an
  /// out-of-range index, or an overlay of another width, is
  /// InvalidArgument.
  [[nodiscard]] util::Result<SerializedTable> SerializeTable(
      const Table& table, std::span<const int> columns,
      const TableOverlay* overlay = nullptr) const;

  /// Single-column serialization (the DOSOLO_SCol type model).
  [[nodiscard]] util::Result<SerializedTable> SerializeColumn(const Table& table,
                                                int column) const;

  /// Column-pair serialization (the DOSOLO_SCol relation model); yields two
  /// [CLS] positions so the same relation head applies.
  [[nodiscard]] util::Result<SerializedTable> SerializeColumnPair(const Table& table,
                                                    int column_a,
                                                    int column_b) const;

  /// Largest column count a table may have so that every column keeps at
  /// least one value token under `options` (the "Max # of cols" column of
  /// Table 8).
  int MaxSupportedColumns() const;

  /// Largest column count one serialization may have so that every column
  /// keeps its [CLS] plus at least one value token:
  /// max(1, (max_total_tokens - 1) / 2). Wider tables are annotated in
  /// column chunks of this size by the type path; the whole-table paths
  /// (relations, embeddings) reject them.
  int ChunkCap() const;

  const SerializerOptions& options() const { return options_; }

 private:
  /// Appends one column's content tokens (truncated to `budget`) and their
  /// row ids to the output sequence, reading its name and cells through
  /// `overlay` when it is not null.
  void AppendColumnTokens(const Column& column, const ColumnOverlay* overlay,
                          int budget, SerializedTable* out) const;

  const text::WordPieceTokenizer* tokenizer_;
  SerializerOptions options_;
};

}  // namespace doduo::table

#endif  // DODUO_TABLE_SERIALIZER_H_
