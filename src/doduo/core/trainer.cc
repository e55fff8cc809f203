#include "doduo/core/trainer.h"

#include <algorithm>

#include "doduo/core/calibration.h"
#include "doduo/nn/losses.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/optimizer.h"
#include "doduo/util/logging.h"

namespace doduo::core {

namespace {

// Multi-hot targets [rows, num_classes] from label sets.
nn::Tensor MultiHot(const std::vector<std::vector<int>>& labels,
                    int num_classes) {
  nn::Tensor targets(
      {static_cast<int64_t>(labels.size()), num_classes});
  for (size_t i = 0; i < labels.size(); ++i) {
    for (int label : labels[i]) {
      DODUO_CHECK(label >= 0 && label < num_classes);
      targets.at(static_cast<int64_t>(i), label) = 1.0f;
    }
  }
  return targets;
}

// Primary (first) label per row for the CE objective.
std::vector<int> PrimaryLabels(const std::vector<std::vector<int>>& labels) {
  std::vector<int> primary;
  primary.reserve(labels.size());
  for (const auto& set : labels) {
    DODUO_CHECK(!set.empty());
    primary.push_back(set[0]);
  }
  return primary;
}

// The two tasks differ only in these ends of the shared epoch and
// evaluation loops (and in their class counts).
const nn::Tensor& Forward(DoduoModel* model, const TypeExample& example) {
  return model->ForwardTypes(example.input);
}

const nn::Tensor& Forward(DoduoModel* model,
                          const RelationExample& example) {
  return model->ForwardRelations(example.input, example.pairs);
}

void Backward(DoduoModel* model, const TypeExample& /*example*/,
              const nn::Tensor& grad_logits) {
  model->BackwardTypes(grad_logits);
}

void Backward(DoduoModel* model, const RelationExample& /*example*/,
              const nn::Tensor& grad_logits) {
  model->BackwardRelations(grad_logits);
}

// One epoch of one task in a shuffled order, with an optimizer step every
// batch_size examples and one for a partial last batch. Returns the mean
// example loss.
template <typename Example>
double TrainEpoch(DoduoModel* model, const std::vector<Example>& examples,
                  int num_classes, util::Rng* rng, nn::Adam* optimizer,
                  const nn::LinearDecaySchedule& schedule) {
  const DoduoConfig& config = model->config();
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);

  double epoch_loss = 0.0;
  int64_t count = 0;
  int in_batch = 0;
  for (size_t idx : order) {
    const Example& example = examples[idx];
    const nn::Tensor& logits = Forward(model, example);
    nn::LossResult loss;
    if (config.multi_label) {
      loss = nn::BinaryCrossEntropyWithLogits(
          logits, MultiHot(example.labels, num_classes), {});
    } else {
      loss = nn::SoftmaxCrossEntropy(logits, PrimaryLabels(example.labels));
    }
    epoch_loss += loss.loss;
    ++count;
    nn::Scale(&loss.grad_logits,
              1.0f / static_cast<float>(config.batch_size));
    Backward(model, example, loss.grad_logits);
    if (++in_batch == config.batch_size) {
      optimizer->Step(schedule.LearningRate(optimizer->step_count()));
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    optimizer->Step(schedule.LearningRate(optimizer->step_count()));
  }
  return count > 0 ? epoch_loss / static_cast<double>(count) : 0.0;
}

// Decodes every example's logits and scores them against its labels.
template <typename Example>
EvalResult Evaluate(DoduoModel* model, const std::vector<Example>& examples,
                    int num_classes) {
  const DoduoConfig& config = model->config();
  EvalResult result;
  for (const Example& example : examples) {
    const nn::Tensor& logits = Forward(model, example);
    DODUO_CHECK_EQ(logits.rows(),
                   static_cast<int64_t>(example.labels.size()));
    for (int64_t row = 0; row < logits.rows(); ++row) {
      result.sets.predicted.push_back(
          DecodeClasses(logits.row(row), logits.cols(), config.multi_label,
                        config.multi_label_threshold));
      result.sets.actual.push_back(
          example.labels[static_cast<size_t>(row)]);
    }
  }
  const auto counts = eval::CountPerClass(result.sets, num_classes);
  result.micro = eval::MicroPrf(counts);
  result.macro = eval::MacroPrf(counts);
  return result;
}

}  // namespace

ExampleBuilder::ExampleBuilder(const table::TableSerializer* serializer,
                               const DoduoConfig* config)
    : serializer_(serializer), config_(config) {
  DODUO_CHECK(serializer != nullptr);
  DODUO_CHECK(config != nullptr);
}

std::vector<TypeExample> ExampleBuilder::BuildTypeExamples(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) const {
  std::vector<TypeExample> examples;
  for (size_t index : table_indices) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    if (config_->input_mode == InputMode::kTableWise) {
      TypeExample example;
      example.input = serializer_->SerializeTable(annotated.table).value();
      example.labels = annotated.column_types;
      examples.push_back(std::move(example));
    } else {
      for (int c = 0; c < annotated.table.num_columns(); ++c) {
        TypeExample example;
        example.input =
            serializer_->SerializeColumn(annotated.table, c).value();
        example.labels = {annotated.column_types[static_cast<size_t>(c)]};
        examples.push_back(std::move(example));
      }
    }
  }
  return examples;
}

std::vector<RelationExample> ExampleBuilder::BuildRelationExamples(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) const {
  std::vector<RelationExample> examples;
  for (size_t index : table_indices) {
    const table::AnnotatedTable& annotated = dataset.tables[index];
    if (annotated.relations.empty()) continue;
    if (config_->input_mode == InputMode::kTableWise) {
      RelationExample example;
      example.input = serializer_->SerializeTable(annotated.table).value();
      for (const table::RelationAnnotation& rel : annotated.relations) {
        example.pairs.emplace_back(rel.column_a, rel.column_b);
        example.labels.push_back(rel.labels);
      }
      examples.push_back(std::move(example));
    } else {
      for (const table::RelationAnnotation& rel : annotated.relations) {
        RelationExample example;
        example.input = serializer_
                            ->SerializeColumnPair(annotated.table,
                                                  rel.column_a, rel.column_b)
                            .value();
        example.pairs = {{0, 1}};
        example.labels = {rel.labels};
        examples.push_back(std::move(example));
      }
    }
  }
  return examples;
}

Trainer::Trainer(DoduoModel* model,
                 const table::TableSerializer* serializer)
    : model_(model),
      serializer_(serializer),
      builder_(serializer, &model->config()) {
  DODUO_CHECK(model != nullptr);
}

TrainHistory Trainer::Train(const table::ColumnAnnotationDataset& dataset,
                            const table::DatasetSplits& splits) {
  const DoduoConfig& config = model_->config();
  util::Rng rng(config.seed);

  const bool train_types = config.tasks != TaskSet::kRelationsOnly;
  const bool train_relations = config.tasks != TaskSet::kTypesOnly;

  std::vector<TypeExample> type_examples;
  std::vector<RelationExample> relation_examples;
  if (train_types) {
    type_examples = builder_.BuildTypeExamples(dataset, splits.train);
  }
  if (train_relations) {
    relation_examples =
        builder_.BuildRelationExamples(dataset, splits.train);
    DODUO_CHECK(!relation_examples.empty())
        << "relation task enabled but the training split has no relations";
  }

  nn::ParameterList params = model_->Parameters();
  nn::AdamOptions adam_options;
  adam_options.learning_rate = config.learning_rate;

  // One optimizer and schedule per task (Algorithm 1, line 6-10): each task
  // keeps its own Adam moments and decay position.
  const int64_t type_steps =
      train_types
          ? (static_cast<int64_t>(type_examples.size()) + config.batch_size -
             1) / config.batch_size * config.epochs
          : 0;
  const int64_t relation_steps =
      train_relations
          ? (static_cast<int64_t>(relation_examples.size()) +
             config.batch_size - 1) / config.batch_size * config.epochs
          : 0;
  nn::Adam type_optimizer(params, adam_options);
  nn::Adam relation_optimizer(params, adam_options);
  nn::LinearDecaySchedule type_schedule(config.learning_rate,
                                        std::max<int64_t>(1, type_steps));
  nn::LinearDecaySchedule relation_schedule(
      config.learning_rate, std::max<int64_t>(1, relation_steps));

  TrainHistory history;
  std::vector<nn::Tensor> best_weights;
  best_type_weights_.clear();
  best_relation_weights_.clear();
  double best_type_f1 = -1.0;
  double best_relation_f1 = -1.0;

  model_->set_training(true);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    double type_loss = 0.0;
    double relation_loss = 0.0;
    if (train_types) {
      type_loss = TrainEpoch(model_, type_examples, config.num_types, &rng,
                             &type_optimizer, type_schedule);
    }
    if (train_relations) {
      relation_loss =
          TrainEpoch(model_, relation_examples, config.num_relations, &rng,
                     &relation_optimizer, relation_schedule);
    }

    // Validation micro-F1 (per task) drives checkpoint selection; each
    // task keeps the checkpoint of its own best epoch.
    model_->set_training(false);
    double score = 0.0;
    int score_terms = 0;
    if (train_types) {
      const EvalResult result = EvaluateTypes(dataset, splits.valid);
      history.valid_type_f1.push_back(result.micro.f1);
      score += result.micro.f1;
      ++score_terms;
      if (result.micro.f1 > best_type_f1) {
        best_type_f1 = result.micro.f1;
        history.best_type_epoch = epoch;
        best_type_weights_ = model_->SnapshotWeights();
      }
    }
    if (train_relations) {
      const EvalResult result = EvaluateRelations(dataset, splits.valid);
      history.valid_relation_f1.push_back(result.micro.f1);
      score += result.micro.f1;
      ++score_terms;
      if (result.micro.f1 > best_relation_f1) {
        best_relation_f1 = result.micro.f1;
        history.best_relation_epoch = epoch;
        best_relation_weights_ = model_->SnapshotWeights();
      }
    }
    model_->set_training(true);
    if (score_terms > 0) score /= score_terms;

    if (score >= history.best_score) {
      history.best_score = score;
      history.best_epoch = epoch;
      best_weights = model_->SnapshotWeights();
    }
    if (config.verbose) {
      DODUO_LOG(Info) << "epoch " << epoch + 1 << "/" << config.epochs
                      << " type_loss=" << type_loss
                      << " rel_loss=" << relation_loss
                      << " valid_score=" << score;
    }
  }
  model_->set_training(false);
  if (!best_weights.empty()) model_->RestoreWeights(best_weights);
  return history;
}

void Trainer::RestoreBestTypeCheckpoint() {
  if (!best_type_weights_.empty()) {
    model_->RestoreWeights(best_type_weights_);
  }
}

void Trainer::RestoreBestRelationCheckpoint() {
  if (!best_relation_weights_.empty()) {
    model_->RestoreWeights(best_relation_weights_);
  }
}

EvalResult Trainer::EvaluateTypes(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) {
  model_->set_training(false);
  return Evaluate(model_, builder_.BuildTypeExamples(dataset, table_indices),
                  model_->config().num_types);
}

EvalResult Trainer::EvaluateRelations(
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) {
  model_->set_training(false);
  return Evaluate(model_,
                  builder_.BuildRelationExamples(dataset, table_indices),
                  model_->config().num_relations);
}

}  // namespace doduo::core
