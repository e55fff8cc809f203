#ifndef DODUO_CORE_TRAINER_H_
#define DODUO_CORE_TRAINER_H_

#include <utility>
#include <vector>

#include "doduo/core/model.h"
#include "doduo/eval/metrics.h"
#include "doduo/table/dataset.h"
#include "doduo/table/serializer.h"

namespace doduo::core {

/// One training/evaluation example for the column-type task: a serialized
/// sequence plus one label set per [CLS] marker.
struct TypeExample {
  table::SerializedTable input;
  std::vector<std::vector<int>> labels;
};

/// One example for the column-relation task: a serialized sequence, the
/// column-index pairs to classify, and one label set per pair.
struct RelationExample {
  table::SerializedTable input;
  std::vector<std::pair<int, int>> pairs;
  std::vector<std::vector<int>> labels;
};

/// Builds task examples from annotated tables according to the input mode:
/// table-wise (whole table per sequence) or single-column (one sequence per
/// column / column pair), matching the paper's DODUO vs DOSOLO_SCol.
class ExampleBuilder {
 public:
  ExampleBuilder(const table::TableSerializer* serializer,
                 const DoduoConfig* config);

  std::vector<TypeExample> BuildTypeExamples(
      const table::ColumnAnnotationDataset& dataset,
      const std::vector<size_t>& table_indices) const;

  std::vector<RelationExample> BuildRelationExamples(
      const table::ColumnAnnotationDataset& dataset,
      const std::vector<size_t>& table_indices) const;

 private:
  const table::TableSerializer* serializer_;
  const DoduoConfig* config_;
};

/// Evaluation output: the raw prediction/label sets plus aggregate scores.
struct EvalResult {
  eval::LabeledSets sets;
  eval::Prf micro;
  eval::Prf macro;
};

/// Per-epoch validation curve of a training run.
struct TrainHistory {
  std::vector<double> valid_type_f1;
  std::vector<double> valid_relation_f1;
  int best_epoch = -1;      // by combined score
  double best_score = 0.0;  // combined (mean of task F1s)
  int best_type_epoch = -1;
  int best_relation_epoch = -1;
};

/// Fine-tunes a DoduoModel with the paper's Algorithm 1: tasks alternate
/// every epoch, each with its own Adam optimizer and linear-decay schedule;
/// the checkpoint with the best validation micro-F1 is kept.
class Trainer {
 public:
  Trainer(DoduoModel* model, const table::TableSerializer* serializer);

  /// Trains and leaves the model at the best-combined-score checkpoint.
  /// Per-task best checkpoints are retained for RestoreBest*Checkpoint
  /// (multi-task training reports each task at its own best epoch).
  TrainHistory Train(const table::ColumnAnnotationDataset& dataset,
                     const table::DatasetSplits& splits);

  /// Restores the checkpoint with the best validation type / relation F1.
  /// No-ops (keeping current weights) when that task was not trained.
  void RestoreBestTypeCheckpoint();
  void RestoreBestRelationCheckpoint();

  /// Predicts and scores column types over the given tables.
  EvalResult EvaluateTypes(const table::ColumnAnnotationDataset& dataset,
                           const std::vector<size_t>& table_indices);

  /// Predicts and scores column relations over the annotated pairs of the
  /// given tables.
  EvalResult EvaluateRelations(const table::ColumnAnnotationDataset& dataset,
                               const std::vector<size_t>& table_indices);

 private:
  DoduoModel* model_;
  const table::TableSerializer* serializer_;
  ExampleBuilder builder_;
  std::vector<nn::Tensor> best_type_weights_;
  std::vector<nn::Tensor> best_relation_weights_;
};

}  // namespace doduo::core

#endif  // DODUO_CORE_TRAINER_H_
