#ifndef DODUO_CORE_ANNOTATOR_H_
#define DODUO_CORE_ANNOTATOR_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "doduo/core/model.h"
#include "doduo/table/dataset.h"
#include "doduo/table/sanitizer.h"
#include "doduo/table/serializer.h"
#include "doduo/util/metrics.h"
#include "doduo/util/status.h"

namespace doduo::core {

class ReplicaPool;

/// Per-column result of the robust (dirty-input) annotation path. Exactly
/// one of three shapes:
///  - annotated: labels non-empty, confidence set, skipped_reason empty;
///  - abstained: labels empty, abstained true, confidence set (it was
///    measured, and fell below the threshold);
///  - skipped:   labels empty, skipped_reason a stable token from
///    table::SkipReasonName ("empty_column", "mostly_null", ...).
struct ColumnOutcome {
  std::vector<std::string> labels;
  double confidence = 0.0;  // calibrated top-1 confidence in [0, 1]
  std::string skipped_reason;
  bool abstained = false;

  bool annotated() const { return !labels.empty(); }
};

/// Knobs of the robust annotation path.
struct AnnotateOptions {
  /// Run the table::ColumnSanitizer pass (per-column skip classification +
  /// UTF-8 repair + cell clamping). Off: every column is annotated as-is.
  bool sanitize = true;
  /// Columns whose calibrated confidence falls below this threshold return
  /// an abstained outcome instead of labels (0 = never abstain).
  double abstain_below = 0.0;
  table::SanitizerOptions sanitizer;
};

/// Applies `abstain_below` to an annotated outcome in place: below the
/// threshold the labels are dropped and `abstained` is set. Bumps the
/// "annotate.abstained" counter; idempotent on skipped or already
/// abstained outcomes. doduo_serve uses it to apply per-request thresholds
/// to outcomes computed once per batch.
void ApplyAbstention(ColumnOutcome* outcome, double abstain_below);

/// The toolbox-style public API (the "few lines of Python" interface the
/// paper releases, in C++): hand it a table, get column types, column
/// relations, or contextualized column embeddings back.
///
///   Annotator annotator(&model, &serializer, &types, &relations);
///   auto types = annotator.AnnotateTypes(my_table);
///   if (!types.ok()) { /* surface types.status() */ }
///
/// Error contract (DESIGN §10): every entry point validates its input and
/// returns a non-OK Status — naming the offending table, column index, or
/// pair — instead of aborting the process. Malformed inputs covered:
/// zero-column tables, tables whose column count exceeds the serializer's
/// token budget, out-of-range or duplicate relation pairs, and relation
/// calls on a model built without a relation head. Valid inputs produce
/// exactly the same bytes as before the Status migration.
///
/// Batch calls fan tables out across model replicas (DESIGN §7) and keep
/// the replicas for the next batch call while the model's weights stay at
/// the same revision; copies of an annotator share them. Like the model
/// itself, an annotator serves one call at a time: replica 0 of every
/// fan-out is the model passed in here.
class Annotator {
 public:
  /// All pointers must outlive the annotator. `relation_vocab` may be
  /// nullptr when the model has no relation head.
  Annotator(DoduoModel* model, const table::TableSerializer* serializer,
            const table::LabelVocab* type_vocab,
            const table::LabelVocab* relation_vocab);

  /// Predicted semantic type names per column (one or more per column for
  /// multi-label models): the labels of AnnotateTypesRobust with the
  /// sanitizer off, after the serializer's column-count checks. A table
  /// with more than TableSerializer::ChunkCap() columns is annotated in
  /// column chunks, so every column is labelled from its cell content.
  [[nodiscard]] util::Result<std::vector<std::vector<std::string>>>
  AnnotateTypes(
      const table::Table& table) const;

  /// The dirty-input entry point: never fails a whole table. Every column
  /// of `table` gets exactly one ColumnOutcome — a label set with a
  /// calibrated confidence, an abstention, or a machine-readable skip
  /// reason from the sanitizer pass. Tables wider than the serializer's
  /// token budget are annotated in column chunks instead of erroring; a
  /// zero-column table yields an empty vector. On clean input with
  /// default options the labels are byte-identical to AnnotateTypes.
  std::vector<ColumnOutcome> AnnotateTypesRobust(
      const table::Table& table, const AnnotateOptions& options = {}) const;

  /// The batch layer: AnnotateTypesRobust for every table, with the
  /// forward passes of independent tables running concurrently on the
  /// global compute pool (util::ComputePool), one model replica per worker.
  /// Results are index-aligned with the input and identical to looping the
  /// scalar call (replicas share the same weights and the kernels are
  /// bit-deterministic across thread counts). Sequential when the pool has
  /// one thread, when fewer than two tables are given, or when the calling
  /// thread runs inline (util::ThreadPool::RunsInline(): a pool worker, or
  /// a replica holder such as a doduo_serve batcher worker). Never fails.
  std::vector<std::vector<ColumnOutcome>> AnnotateTypesRobustBatch(
      std::span<const table::Table> tables,
      const AnnotateOptions& options = {}) const;

  /// Predicted relation names between the given column pairs. Pairs must be
  /// in-range column indices and free of duplicates; an empty pair list
  /// yields an empty result. The table is serialized whole, so one wider
  /// than TableSerializer::ChunkCap() columns is InvalidArgument.
  [[nodiscard]] util::Result<std::vector<std::string>> AnnotateRelations(
      const table::Table& table,
      const std::vector<std::pair<int, int>>& pairs) const;

  /// Relations between the key column (0) and every other column.
  [[nodiscard]] util::Result<std::vector<std::string>> AnnotateKeyRelations(
      const table::Table& table) const;

  /// Contextualized column embeddings [num_columns, hidden_dim]. Like
  /// AnnotateRelations, rejects a table wider than ChunkCap() columns.
  [[nodiscard]] util::Result<nn::Tensor> ColumnEmbeddings(const table::Table& table) const;

  /// AnnotateTypes for every table: result[t][column] = type names, the
  /// labels of AnnotateTypesRobustBatch with the sanitizer off. Every table
  /// is validated up front: a malformed one fails the whole batch before
  /// any forward pass runs, and the message names its index.
  [[nodiscard]] util::Result<std::vector<std::vector<std::vector<std::string>>>>
  AnnotateTypesBatch(std::span<const table::Table> tables) const;

  // -- Observability --------------------------------------------------------

  /// Snapshot of the process-wide pipeline metrics (serialize/forward/head
  /// latencies, table and error counters; see util/metrics.h and
  /// DESIGN §10). Also available as JSON via util::MetricsToJson().
  static util::MetricsSnapshot StatsSnapshot();

 private:
  /// The fan-out replicas a batch call keeps for the next one; shared by
  /// copies of this annotator (defined in annotator.cc).
  struct ReplicaCache;

  /// The replica fan-out skeleton of the batch layer: invokes
  /// `fn(model, index)` for every index in [0, count), striding indices
  /// across replicas (sequential when only one replica is profitable or
  /// the caller's ParallelFor already runs inline: a pool worker, or a
  /// thread that holds a replica).
  void FanOut(size_t count,
              const std::function<void(DoduoModel*, size_t)>& fn) const;

  /// Takes the cached replica pool when it is still Fresh() and has at
  /// least `num_replicas` replicas; otherwise builds a new one.
  std::unique_ptr<ReplicaPool> CheckOutReplicas(int num_replicas) const;

  /// Puts `replicas` back for the next batch call, unless a concurrent
  /// call already did; then `replicas` is dropped.
  void ReturnReplicas(std::unique_ptr<ReplicaPool> replicas) const;

  /// The per-table type pipeline (sanitize, chunk, serialize, forward,
  /// decode) run on one model replica; every type entry point ends here.
  std::vector<ColumnOutcome> RobustOutcomes(
      DoduoModel* model, const table::Table& table,
      const AnnotateOptions& options) const;

  /// InvalidArgument for a table wider than TableSerializer::ChunkCap():
  /// the relation and embedding paths serialize a table whole, and past
  /// the cap its columns would carry no content tokens.
  [[nodiscard]] util::Status ValidateWholeWidth(
      const table::Table& table) const;

  /// Non-OK when any pair index is out of range for `table` or the same
  /// pair appears twice.
  [[nodiscard]] util::Status ValidatePairs(
      const table::Table& table,
      const std::vector<std::pair<int, int>>& pairs) const;

  DoduoModel* model_;
  const table::TableSerializer* serializer_;
  const table::LabelVocab* type_vocab_;
  const table::LabelVocab* relation_vocab_;
  std::shared_ptr<ReplicaCache> replica_cache_;
};

}  // namespace doduo::core

#endif  // DODUO_CORE_ANNOTATOR_H_
