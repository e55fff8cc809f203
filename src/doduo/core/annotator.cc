#include "doduo/core/annotator.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "doduo/core/calibration.h"
#include "doduo/core/replica_pool.h"
#include "doduo/util/check.h"
#include "doduo/util/mutex.h"
#include "doduo/util/thread_annotations.h"
#include "doduo/util/thread_pool.h"

namespace doduo::core {

namespace {

// Pipeline metrics (DESIGN §10). Resolved once per process; the annotate
// hot path only pays relaxed atomic adds.
struct AnnotatorMetrics {
  util::Counter* tables = util::GetCounter("annotator.tables_total");
  util::Counter* columns = util::GetCounter("annotator.columns_total");
  util::Counter* errors = util::GetCounter("annotator.errors_total");
  util::Counter* batches = util::GetCounter("annotator.batches_total");
  util::Counter* abstained = util::GetCounter("annotate.abstained");
  util::Counter* skipped_cols = util::GetCounter("annotate.skipped_cols");
  util::Histogram* annotate_us =
      util::GetHistogram("annotator.annotate_us");
  util::Histogram* batch_us = util::GetHistogram("annotator.batch_us");
};

AnnotatorMetrics& Metrics() {
  static AnnotatorMetrics metrics;
  return metrics;
}

util::Status CountError(util::Status status) {
  Metrics().errors->Increment();
  return status;
}

// The plain type API is a projection of the outcome pipeline: with the
// sanitizer off and no abstention, every column of a validated table comes
// back annotated, so its labels are the whole answer.
AnnotateOptions PlainOptions() {
  AnnotateOptions options;
  options.sanitize = false;
  return options;
}

std::vector<std::vector<std::string>> Labels(
    std::vector<ColumnOutcome> outcomes) {
  std::vector<std::vector<std::string>> labels;
  labels.reserve(outcomes.size());
  for (ColumnOutcome& outcome : outcomes) {
    labels.push_back(std::move(outcome.labels));
  }
  return labels;
}

}  // namespace

void ApplyAbstention(ColumnOutcome* outcome, double abstain_below) {
  if (abstain_below <= 0.0 || !outcome->annotated()) return;
  if (outcome->confidence < abstain_below) {
    outcome->labels.clear();
    outcome->abstained = true;
    Metrics().abstained->Increment();
  }
}

Annotator::Annotator(DoduoModel* model,
                     const table::TableSerializer* serializer,
                     const table::LabelVocab* type_vocab,
                     const table::LabelVocab* relation_vocab)
    : model_(model),
      serializer_(serializer),
      type_vocab_(type_vocab),
      relation_vocab_(relation_vocab),
      replica_cache_(std::make_shared<ReplicaCache>()) {
  DODUO_CHECK(model != nullptr);
  DODUO_CHECK(serializer != nullptr);
  DODUO_CHECK(type_vocab != nullptr);
}

util::Result<std::vector<std::vector<std::string>>> Annotator::AnnotateTypes(
    const table::Table& table) const {
  util::Status valid = serializer_->ValidateTable(table);
  if (!valid.ok()) return CountError(std::move(valid));
  return Labels(AnnotateTypesRobust(table, PlainOptions()));
}

util::Status Annotator::ValidatePairs(
    const table::Table& table,
    const std::vector<std::pair<int, int>>& pairs) const {
  const int n = table.num_columns();
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto [a, b] = pairs[p];
    if (a < 0 || a >= n || b < 0 || b >= n) {
      return util::Status::InvalidArgument(
          "relation pair " + std::to_string(p) + " = (" + std::to_string(a) +
          ", " + std::to_string(b) + ") is out of range for table '" +
          table.id() + "' with " + std::to_string(n) + " columns");
    }
    // Pair lists are short (at most one per column pair of one table), so
    // the quadratic duplicate scan costs nothing and allocates nothing.
    for (size_t q = 0; q < p; ++q) {
      if (pairs[q] == pairs[p]) {
        return util::Status::InvalidArgument(
            "duplicate relation pair (" + std::to_string(a) + ", " +
            std::to_string(b) + ") at positions " + std::to_string(q) +
            " and " + std::to_string(p) + " for table '" + table.id() + "'");
      }
    }
  }
  return util::Status::Ok();
}

util::Status Annotator::ValidateWholeWidth(const table::Table& table) const {
  // Relation pairs and embeddings see the whole table in one sequence, so
  // a table the type path would chunk cannot be split here: past the cap
  // its columns would carry no content tokens at all.
  const int cap = serializer_->ChunkCap();
  if (table.num_columns() > cap) {
    return util::Status::InvalidArgument(
        "table '" + table.id() + "' has " +
        std::to_string(table.num_columns()) +
        " columns; relation and embedding calls serialize the whole table, "
        "and max_total_tokens=" +
        std::to_string(serializer_->options().max_total_tokens) +
        " leaves content tokens for at most " + std::to_string(cap));
  }
  return util::Status::Ok();
}

struct Annotator::ReplicaCache {
  util::Mutex mu{"core.replica_cache"};
  std::unique_ptr<ReplicaPool> pool DODUO_GUARDED_BY(mu);
};

std::unique_ptr<ReplicaPool> Annotator::CheckOutReplicas(
    int num_replicas) const {
  std::unique_ptr<ReplicaPool> replicas;
  {
    util::MutexLock lock(&replica_cache_->mu);
    replicas = std::move(replica_cache_->pool);
  }
  if (replicas != nullptr && replicas->Fresh() &&
      replicas->num_replicas() >= num_replicas) {
    replicas->SyncFromPrimary();
    return replicas;
  }
  // A stale pool goes before its replacement is built, so the two never
  // hold workspaces at the same time.
  replicas.reset();
  return std::make_unique<ReplicaPool>(model_, serializer_, type_vocab_,
                                       relation_vocab_, num_replicas);
}

void Annotator::ReturnReplicas(std::unique_ptr<ReplicaPool> replicas) const {
  util::MutexLock lock(&replica_cache_->mu);
  if (replica_cache_->pool == nullptr) {
    replica_cache_->pool = std::move(replicas);
  }
  // Otherwise the parameter dies once this returns, after the lock is
  // released: a pool's teardown never runs under core.replica_cache.
}

void Annotator::FanOut(
    size_t count, const std::function<void(DoduoModel*, size_t)>& fn) const {
  util::ThreadPool* pool = util::ComputePool();
  const size_t replicas_wanted =
      std::min<size_t>(static_cast<size_t>(pool->num_threads()), count);
  if (replicas_wanted <= 1 || util::ThreadPool::RunsInline()) {
    for (size_t t = 0; t < count; ++t) {
      fn(model_, t);
    }
    return;
  }

  // The forward pass caches state in the model, so concurrent tables need
  // separate replicas. ReplicaPool snapshots the weights once into an
  // immutable shared copy and materializes the replicas from it; replica 0
  // is the primary model itself (the caller's ParallelFor chunk). The pool
  // outlives the call: later calls reuse it, and its replicas' workspaces
  // stay warm, until the weights move.
  std::unique_ptr<ReplicaPool> replicas =
      CheckOutReplicas(static_cast<int>(replicas_wanted));

  const size_t stride = replicas_wanted;
  pool->ParallelFor(
      0, static_cast<int64_t>(replicas_wanted), /*grain=*/1,
      [&](int64_t replica_begin, int64_t replica_end) {
        for (int64_t r = replica_begin; r < replica_end; ++r) {
          // Every replica thread, the caller's included, keeps its kernels
          // serial while it holds the replica: the other workers are busy
          // with sibling replicas.
          const ReplicaPool::ScopedUse use(replicas.get(),
                                           static_cast<int>(r));
          DoduoModel* model = replicas->model(static_cast<int>(r));
          for (size_t t = static_cast<size_t>(r); t < count; t += stride) {
            fn(model, t);
          }
        }
      });
  ReturnReplicas(std::move(replicas));
}

util::Result<std::vector<std::vector<std::vector<std::string>>>>
Annotator::AnnotateTypesBatch(std::span<const table::Table> tables) const {
  // Every table is validated before the first forward pass runs.
  for (size_t t = 0; t < tables.size(); ++t) {
    util::Status valid = serializer_->ValidateTable(tables[t]);
    if (!valid.ok()) {
      return CountError(util::Status(
          valid.code(), "table " + std::to_string(t) + " of " +
                            std::to_string(tables.size()) + ": " +
                            valid.message()));
    }
  }
  std::vector<std::vector<ColumnOutcome>> outcomes =
      AnnotateTypesRobustBatch(tables, PlainOptions());
  std::vector<std::vector<std::vector<std::string>>> results;
  results.reserve(outcomes.size());
  for (std::vector<ColumnOutcome>& table_outcomes : outcomes) {
    results.push_back(Labels(std::move(table_outcomes)));
  }
  return results;
}

std::vector<ColumnOutcome> Annotator::RobustOutcomes(
    DoduoModel* model, const table::Table& table,
    const AnnotateOptions& options) const {
  const int n = table.num_columns();
  std::vector<ColumnOutcome> outcomes(static_cast<size_t>(n));
  if (n == 0) return outcomes;

  // Classify columns and clean the annotatable ones. On clean input the
  // sanitizer reports no modification and the original table flows through
  // untouched, so the labels equal the unsanitized ones.
  const table::Table* effective = &table;
  table::SanitizeResult sanitized;
  if (options.sanitize) {
    sanitized = table::ColumnSanitizer(options.sanitizer).Sanitize(table);
    if (sanitized.any_modified) effective = &sanitized.table;
    for (int c = 0; c < n; ++c) {
      const table::SkipReason skip =
          sanitized.columns[static_cast<size_t>(c)].skip;
      if (skip != table::SkipReason::kNone) {
        outcomes[static_cast<size_t>(c)].skipped_reason =
            table::SkipReasonName(skip);
        Metrics().skipped_cols->Increment();
      }
    }
  }

  std::vector<int> annotatable;
  annotatable.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    if (outcomes[static_cast<size_t>(c)].skipped_reason.empty()) {
      annotatable.push_back(c);
    }
  }

  // Tables wider than the token budget are annotated in column chunks
  // instead of failing: a chunk of at most ChunkCap() columns leaves every
  // column its [CLS] plus at least one value token.
  const size_t chunk_cap = static_cast<size_t>(serializer_->ChunkCap());

  // The decode policy (multi-label threshold, calibration temperature) is
  // the annotator's own model's: a kept replica was configured when it was
  // built, and a later set_calibration_temperature reaches only model_.
  const DoduoConfig& config = model_->config();
  for (size_t begin = 0; begin < annotatable.size(); begin += chunk_cap) {
    const size_t end = std::min(annotatable.size(), begin + chunk_cap);
    // A chunk is serialized straight from the table by column index, so
    // wide and partially skipped tables copy no cells.
    auto input = serializer_->SerializeTable(
        *effective,
        std::span<const int>(annotatable).subspan(begin, end - begin));
    if (!input.ok()) {
      // Unreachable for chunks within the cap, but the robust contract is
      // that no column ever loses its outcome: record it as a skip.
      (void)CountError(input.status());
      for (size_t i = begin; i < end; ++i) {
        ColumnOutcome& outcome = outcomes[static_cast<size_t>(
            annotatable[i])];
        outcome.skipped_reason = "serialize_error";
        Metrics().skipped_cols->Increment();
      }
      continue;
    }
    const nn::Tensor& logits = model->ForwardTypes(input.value());
    for (size_t i = begin; i < end; ++i) {
      ColumnOutcome& outcome =
          outcomes[static_cast<size_t>(annotatable[i])];
      const int64_t row = static_cast<int64_t>(i - begin);
      for (int type : DecodeClasses(logits.row(row), logits.cols(),
                                    config.multi_label,
                                    config.multi_label_threshold)) {
        outcome.labels.push_back(type_vocab_->Name(type));
      }
      outcome.confidence = CalibratedConfidence(
          logits.row(row), logits.cols(), config.calibration_temperature,
          config.multi_label);
      ApplyAbstention(&outcome, options.abstain_below);
    }
  }
  return outcomes;
}

std::vector<ColumnOutcome> Annotator::AnnotateTypesRobust(
    const table::Table& table, const AnnotateOptions& options) const {
  util::ScopedTimer timer(Metrics().annotate_us,
                          "annotator.annotate_robust");
  model_->set_training(false);
  Metrics().tables->Increment();
  Metrics().columns->Increment(static_cast<uint64_t>(table.num_columns()));
  return RobustOutcomes(model_, table, options);
}

std::vector<std::vector<ColumnOutcome>> Annotator::AnnotateTypesRobustBatch(
    std::span<const table::Table> tables,
    const AnnotateOptions& options) const {
  util::ScopedTimer timer(Metrics().batch_us, "annotator.batch");
  model_->set_training(false);
  Metrics().batches->Increment();
  Metrics().tables->Increment(tables.size());
  for (const table::Table& table : tables) {
    Metrics().columns->Increment(static_cast<uint64_t>(table.num_columns()));
  }
  std::vector<std::vector<ColumnOutcome>> results(tables.size());
  FanOut(tables.size(), [&](DoduoModel* model, size_t index) {
    results[index] = RobustOutcomes(model, tables[index], options);
  });
  return results;
}

util::Result<std::vector<std::string>> Annotator::AnnotateRelations(
    const table::Table& table,
    const std::vector<std::pair<int, int>>& pairs) const {
  util::ScopedTimer timer(Metrics().annotate_us,
                          "annotator.annotate_relations");
  if (relation_vocab_ == nullptr) {
    return CountError(util::Status::FailedPrecondition(
        "model was built without a relation head; AnnotateRelations is "
        "unavailable"));
  }
  auto input = serializer_->SerializeTable(table);
  if (!input.ok()) return CountError(input.status());
  util::Status width = ValidateWholeWidth(table);
  if (!width.ok()) return CountError(std::move(width));
  util::Status pair_status = ValidatePairs(table, pairs);
  if (!pair_status.ok()) return CountError(std::move(pair_status));
  if (pairs.empty()) return std::vector<std::string>{};
  model_->set_training(false);
  const nn::Tensor& logits = model_->ForwardRelations(input.value(), pairs);
  Metrics().tables->Increment();
  std::vector<std::string> annotations;
  annotations.reserve(static_cast<size_t>(logits.rows()));
  for (int64_t row = 0; row < logits.rows(); ++row) {
    const float* z = logits.row(row);
    int64_t best = 0;
    for (int64_t j = 1; j < logits.cols(); ++j) {
      if (z[j] > z[best]) best = j;
    }
    annotations.push_back(relation_vocab_->Name(static_cast<int>(best)));
  }
  return annotations;
}

util::Result<std::vector<std::string>> Annotator::AnnotateKeyRelations(
    const table::Table& table) const {
  if (table.num_columns() == 0) {
    return CountError(util::Status::InvalidArgument(
        "table '" + table.id() + "' has no columns"));
  }
  std::vector<std::pair<int, int>> pairs;
  for (int c = 1; c < table.num_columns(); ++c) pairs.emplace_back(0, c);
  return AnnotateRelations(table, pairs);
}

util::Result<nn::Tensor> Annotator::ColumnEmbeddings(
    const table::Table& table) const {
  util::ScopedTimer timer(Metrics().annotate_us, "annotator.embed");
  auto input = serializer_->SerializeTable(table);
  if (!input.ok()) return CountError(input.status());
  util::Status width = ValidateWholeWidth(table);
  if (!width.ok()) return CountError(std::move(width));
  model_->set_training(false);
  Metrics().tables->Increment();
  Metrics().columns->Increment(static_cast<uint64_t>(table.num_columns()));
  return model_->ColumnEmbeddings(input.value());
}

util::MetricsSnapshot Annotator::StatsSnapshot() {
  return util::SnapshotMetrics();
}

}  // namespace doduo::core
