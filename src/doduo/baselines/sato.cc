#include "doduo/baselines/sato.h"

#include <cmath>
#include <unordered_set>

#include "doduo/nn/ops.h"
#include "doduo/text/basic_tokenizer.h"

namespace doduo::baselines {

SatoModel::SatoModel(int num_types, Options options)
    : num_types_(num_types),
      options_(options),
      lda_(options.lda),
      sherlock_(num_types, options.sherlock,
                /*extra_feature_dim=*/options.lda.num_topics),
      crf_(num_types, options.crf) {
  DODUO_CHECK(!options.sherlock.multi_label)
      << "Sato supports single-label datasets only (as in the paper)";
}

std::vector<std::string> SatoModel::TableDocument(
    const table::Table& table) {
  text::BasicTokenizer tokenizer;
  std::vector<std::string> tokens;
  for (const table::Column& column : table.columns()) {
    for (const std::string& value : column.values) {
      for (std::string& token : tokenizer.Tokenize(value)) {
        tokens.push_back(std::move(token));
      }
    }
  }
  return tokens;
}

nn::Tensor SatoModel::Unaries(
    const table::Table& table,
    const std::vector<float>& topic_features) {
  nn::Tensor unaries({table.num_columns(), num_types_});
  for (int c = 0; c < table.num_columns(); ++c) {
    const std::vector<float> logits =
        sherlock_.Predict(table.column(c), topic_features);
    for (int y = 0; y < num_types_; ++y) {
      unaries.at(c, y) = logits[static_cast<size_t>(y)];
    }
  }
  // Log-softmax rows so the unary scale is comparable to the CRF pairwise
  // weights.
  nn::Tensor normalized;
  nn::LogSoftmaxRows(unaries, &normalized);
  return normalized;
}

void SatoModel::Train(const table::ColumnAnnotationDataset& dataset,
                      const table::DatasetSplits& splits) {
  // 1. Fit LDA on the training tables' documents.
  std::vector<std::vector<std::string>> train_documents;
  train_documents.reserve(splits.train.size());
  for (size_t index : splits.train) {
    train_documents.push_back(TableDocument(dataset.tables[index].table));
  }
  lda_.Fit(train_documents);

  // 2. Topic features for every table in the dataset (fitted counts for
  //    training tables, Gibbs inference for the rest).
  topic_features_.assign(dataset.tables.size(), {});
  std::unordered_set<size_t> train_set(splits.train.begin(),
                                       splits.train.end());
  for (size_t d = 0; d < splits.train.size(); ++d) {
    topic_features_[splits.train[d]] = lda_.DocumentTopics(d);
  }
  for (size_t index = 0; index < dataset.tables.size(); ++index) {
    if (train_set.count(index) > 0) continue;
    topic_features_[index] =
        lda_.InferTopics(TableDocument(dataset.tables[index].table));
  }

  // 3. Train the feature model with topic features appended.
  sherlock_.Train(dataset, splits, topic_features_);

  // 4. Train the CRF on the feature model's unaries.
  std::vector<PairwiseCrf::Instance> instances;
  for (size_t index : splits.train) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    PairwiseCrf::Instance instance;
    instance.unaries = Unaries(annotated.table, topic_features_[index]);
    for (const auto& labels : annotated.column_types) {
      instance.labels.push_back(labels[0]);
    }
    instances.push_back(std::move(instance));
  }
  crf_.Train(instances);
}

core::EvalResult SatoModel::EvaluateTypes(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) {
  DODUO_CHECK_EQ(topic_features_.size(), dataset.tables.size())
      << "EvaluateTypes before Train";
  core::EvalResult result;
  for (size_t index : table_indices) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    const nn::Tensor unaries =
        Unaries(annotated.table, topic_features_[index]);
    const std::vector<int> decoded = crf_.Decode(unaries);
    for (size_t c = 0; c < decoded.size(); ++c) {
      result.sets.predicted.push_back({decoded[c]});
      result.sets.actual.push_back(annotated.column_types[c]);
    }
  }
  const auto counts = eval::CountPerClass(result.sets, num_types_);
  result.micro = eval::MicroPrf(counts);
  result.macro = eval::MacroPrf(counts);
  return result;
}

}  // namespace doduo::baselines
