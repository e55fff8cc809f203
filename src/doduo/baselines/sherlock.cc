#include "doduo/baselines/sherlock.h"

#include "doduo/core/calibration.h"
#include "doduo/nn/losses.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/optimizer.h"

namespace doduo::baselines {

SherlockModel::SherlockModel(int num_types, SherlockOptions options,
                             int extra_feature_dim)
    : num_types_(num_types),
      input_dim_(SherlockFeatureDim() + extra_feature_dim),
      options_(options),
      rng_(options.seed) {
  DODUO_CHECK_GT(num_types, 0);
  layer1_ = std::make_unique<nn::Linear>("sherlock.l1", input_dim_,
                                         options_.hidden_dim, &rng_);
  act1_ = std::make_unique<nn::Relu>();
  layer2_ = std::make_unique<nn::Linear>("sherlock.l2", options_.hidden_dim,
                                         options_.hidden_dim, &rng_);
  act2_ = std::make_unique<nn::Relu>();
  output_ = std::make_unique<nn::Linear>("sherlock.out",
                                         options_.hidden_dim, num_types,
                                         &rng_);
}

nn::Tensor SherlockModel::FeatureRow(const table::Column& column,
                                     const std::vector<float>& extra) const {
  std::vector<float> features = ExtractSherlockFeatures(column);
  features.insert(features.end(), extra.begin(), extra.end());
  DODUO_CHECK_EQ(static_cast<int>(features.size()), input_dim_);
  return nn::Tensor::FromVector({1, input_dim_}, std::move(features));
}

void SherlockModel::Train(
    const table::ColumnAnnotationDataset& dataset,
    const table::DatasetSplits& splits,
    const std::vector<std::vector<float>>& extra_features) {
  // Materialize (feature, label-set) examples for all training columns.
  struct Example {
    nn::Tensor features;  // [1, input_dim]
    std::vector<int> labels;
  };
  std::vector<Example> examples;
  static const std::vector<float> kNoExtra;
  for (size_t index : splits.train) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    const std::vector<float>& extra =
        extra_features.empty() ? kNoExtra : extra_features[index];
    for (int c = 0; c < annotated.table.num_columns(); ++c) {
      examples.push_back(
          {FeatureRow(annotated.table.column(c), extra),
           annotated.column_types[static_cast<size_t>(c)]});
    }
  }
  DODUO_CHECK(!examples.empty());

  nn::ParameterList params;
  for (nn::Linear* layer : {layer1_.get(), layer2_.get(), output_.get()}) {
    nn::AppendParameters(layer->Parameters(), &params);
  }
  nn::AdamOptions adam_options;
  adam_options.learning_rate = options_.learning_rate;
  nn::Adam adam(params, adam_options);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.Shuffle(&order);
    int in_batch = 0;
    for (size_t idx : order) {
      const Example& example = examples[idx];
      const nn::Tensor& hidden1 = act1_->Forward(
          layer1_->Forward(example.features));
      const nn::Tensor& hidden2 = act2_->Forward(layer2_->Forward(hidden1));
      const nn::Tensor& logits = output_->Forward(hidden2);

      nn::LossResult loss;
      if (options_.multi_label) {
        nn::Tensor targets({1, num_types_});
        for (int label : example.labels) targets.at(0, label) = 1.0f;
        loss = nn::BinaryCrossEntropyWithLogits(logits, targets, {});
      } else {
        loss = nn::SoftmaxCrossEntropy(logits, {example.labels[0]});
      }
      nn::Scale(&loss.grad_logits,
                1.0f / static_cast<float>(options_.batch_size));
      layer1_->Backward(
          act1_->Backward(layer2_->Backward(
              act2_->Backward(output_->Backward(loss.grad_logits)))));
      if (++in_batch == options_.batch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
  }
}

std::vector<float> SherlockModel::Predict(const table::Column& column,
                                         const std::vector<float>& extra) {
  const nn::Tensor features = FeatureRow(column, extra);
  const nn::Tensor& hidden1 = act1_->Forward(layer1_->Forward(features));
  const nn::Tensor& hidden2 = act2_->Forward(layer2_->Forward(hidden1));
  const nn::Tensor& logits = output_->Forward(hidden2);
  return std::vector<float>(logits.data(), logits.data() + logits.size());
}

core::EvalResult SherlockModel::EvaluateTypes(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices,
    const std::vector<std::vector<float>>& extra_features) {
  static const std::vector<float> kNoExtra;
  core::EvalResult result;
  for (size_t index : table_indices) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    const std::vector<float>& extra =
        extra_features.empty() ? kNoExtra : extra_features[index];
    for (int c = 0; c < annotated.table.num_columns(); ++c) {
      const std::vector<float> logits =
          Predict(annotated.table.column(c), extra);
      // A sigmoid cut at 0.5 is the cut at logit 0.
      result.sets.predicted.push_back(core::DecodeClasses(
          logits.data(), num_types_, options_.multi_label, 0.5f));
      result.sets.actual.push_back(
          annotated.column_types[static_cast<size_t>(c)]);
    }
  }
  const auto counts = eval::CountPerClass(result.sets, num_types_);
  result.micro = eval::MicroPrf(counts);
  result.macro = eval::MacroPrf(counts);
  return result;
}

}  // namespace doduo::baselines
