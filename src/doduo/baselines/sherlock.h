#ifndef DODUO_BASELINES_SHERLOCK_H_
#define DODUO_BASELINES_SHERLOCK_H_

#include <memory>
#include <vector>

#include "doduo/baselines/sherlock_features.h"
#include "doduo/core/trainer.h"  // EvalResult
#include "doduo/nn/linear.h"
#include "doduo/nn/activations.h"
#include "doduo/table/dataset.h"

namespace doduo::baselines {

/// Settings shared by the Sherlock and Sato baselines.
struct SherlockOptions {
  int hidden_dim = 128;
  int epochs = 30;
  int batch_size = 16;
  double learning_rate = 1e-3;
  float dropout = 0.2f;
  bool multi_label = false;
  uint64_t seed = 42;
};

/// The Sherlock baseline: a per-column feature vector (see
/// sherlock_features.h) fed through a two-hidden-layer MLP. Single-column
/// by construction — it never sees table context, which is exactly its
/// role in the paper's comparisons.
class SherlockModel {
 public:
  /// `extra_feature_dim` extends the input (Sato appends LDA topic
  /// features).
  SherlockModel(int num_types, SherlockOptions options,
                int extra_feature_dim = 0);

  /// Trains on the columns of the training tables. `extra_features[t]` (may
  /// be empty) is appended to every column of table t.
  void Train(const table::ColumnAnnotationDataset& dataset,
             const table::DatasetSplits& splits,
             const std::vector<std::vector<float>>& extra_features = {});

  /// Per-class logits for one column. Runs the layers' Forward as Train
  /// does, so it overwrites their forward state.
  std::vector<float> Predict(const table::Column& column,
                             const std::vector<float>& extra);

  /// Evaluates type prediction over the given tables.
  core::EvalResult EvaluateTypes(
      const table::ColumnAnnotationDataset& dataset,
      const std::vector<size_t>& table_indices,
      const std::vector<std::vector<float>>& extra_features = {});

  int num_types() const { return num_types_; }

 private:
  nn::Tensor FeatureRow(const table::Column& column,
                        const std::vector<float>& extra) const;

  int num_types_;
  int input_dim_;
  SherlockOptions options_;
  util::Rng rng_;
  std::unique_ptr<nn::Linear> layer1_;
  std::unique_ptr<nn::Relu> act1_;
  std::unique_ptr<nn::Linear> layer2_;
  std::unique_ptr<nn::Relu> act2_;
  std::unique_ptr<nn::Linear> output_;
};

}  // namespace doduo::baselines

#endif  // DODUO_BASELINES_SHERLOCK_H_
