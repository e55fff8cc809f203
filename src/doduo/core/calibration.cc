#include "doduo/core/calibration.h"

#include <algorithm>
#include <cmath>

#include "doduo/core/trainer.h"
#include "doduo/util/check.h"

namespace doduo::core {
namespace {

/// Mean NLL of the examples at temperature T. Single-label: softmax
/// cross-entropy against labels[0]. Multi-label: binary cross-entropy of
/// every class against membership in the label set, in the numerically
/// stable max(x,0) - x*y + log1p(exp(-|x|)) form.
double MeanNll(const std::vector<CalibrationExample>& examples,
               bool multi_label, double temperature) {
  double total = 0.0;
  size_t terms = 0;
  for (const CalibrationExample& example : examples) {
    if (example.labels.empty() || example.logits.empty()) continue;
    if (multi_label) {
      for (size_t c = 0; c < example.logits.size(); ++c) {
        const double x = static_cast<double>(example.logits[c]) / temperature;
        const double y =
            std::find(example.labels.begin(), example.labels.end(),
                      static_cast<int>(c)) != example.labels.end()
                ? 1.0
                : 0.0;
        total += std::max(x, 0.0) - x * y + std::log1p(std::exp(-std::abs(x)));
        ++terms;
      }
    } else {
      const int gold = example.labels[0];
      if (gold < 0 || gold >= static_cast<int>(example.logits.size())) {
        continue;
      }
      double max_z = static_cast<double>(example.logits[0]) / temperature;
      for (float z : example.logits) {
        max_z = std::max(max_z, static_cast<double>(z) / temperature);
      }
      double sum_exp = 0.0;
      for (float z : example.logits) {
        sum_exp += std::exp(static_cast<double>(z) / temperature - max_z);
      }
      const double gold_z =
          static_cast<double>(example.logits[static_cast<size_t>(gold)]) /
          temperature;
      total += -(gold_z - max_z - std::log(sum_exp));
      ++terms;
    }
  }
  if (terms == 0) return 0.0;
  return total / static_cast<double>(terms);
}

}  // namespace

double FitTemperature(const std::vector<CalibrationExample>& examples,
                      bool multi_label) {
  bool any = false;
  for (const CalibrationExample& example : examples) {
    if (!example.labels.empty() && !example.logits.empty()) any = true;
  }
  if (!any) return 1.0;

  // Golden-section search over log T: MeanNll is smooth and unimodal in
  // the scaling parameter, and the log domain keeps the bracket symmetric
  // around the identity T=1.
  const double kGolden = 0.6180339887498949;
  double lo = std::log(0.05);
  double hi = std::log(20.0);
  double a = hi - kGolden * (hi - lo);
  double b = lo + kGolden * (hi - lo);
  double fa = MeanNll(examples, multi_label, std::exp(a));
  double fb = MeanNll(examples, multi_label, std::exp(b));
  for (int iter = 0; iter < 60 && hi - lo > 1e-4; ++iter) {
    if (fa < fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - kGolden * (hi - lo);
      fa = MeanNll(examples, multi_label, std::exp(a));
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + kGolden * (hi - lo);
      fb = MeanNll(examples, multi_label, std::exp(b));
    }
  }
  return std::exp(0.5 * (lo + hi));
}

double CalibratedConfidence(const float* logits, int64_t num_classes,
                            double temperature, bool multi_label) {
  DODUO_CHECK_GT(num_classes, 0);
  DODUO_CHECK_GT(temperature, 0.0);
  double max_z = logits[0];
  for (int64_t c = 1; c < num_classes; ++c) {
    max_z = std::max(max_z, static_cast<double>(logits[c]));
  }
  if (multi_label) {
    // Confidence of the strongest class's own binary decision.
    return 1.0 / (1.0 + std::exp(-max_z / temperature));
  }
  double sum_exp = 0.0;
  for (int64_t c = 0; c < num_classes; ++c) {
    sum_exp += std::exp((static_cast<double>(logits[c]) - max_z) /
                        temperature);
  }
  return 1.0 / sum_exp;  // == exp(0) / sum over shifted logits
}

std::vector<int> DecodeClasses(const float* logits, int64_t num_classes,
                               bool multi_label, float threshold) {
  DODUO_CHECK_GT(num_classes, 0);
  int64_t best = 0;
  for (int64_t c = 1; c < num_classes; ++c) {
    if (logits[c] > logits[best]) best = c;
  }
  std::vector<int> picked;
  if (multi_label) {
    const float cut = std::log(threshold) - std::log(1.0f - threshold);
    for (int64_t c = 0; c < num_classes; ++c) {
      if (logits[c] > cut) picked.push_back(static_cast<int>(c));
    }
  }
  if (picked.empty()) picked.push_back(static_cast<int>(best));
  return picked;
}

std::vector<CalibrationExample> CollectTypeCalibration(
    DoduoModel* model, const table::TableSerializer* serializer,
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices) {
  model->set_training(false);
  ExampleBuilder builder(serializer, &model->config());
  std::vector<CalibrationExample> out;
  for (const TypeExample& example :
       builder.BuildTypeExamples(dataset, table_indices)) {
    const nn::Tensor& logits = model->ForwardTypes(example.input);
    DODUO_CHECK_EQ(logits.rows(),
                   static_cast<int64_t>(example.labels.size()));
    for (int64_t row = 0; row < logits.rows(); ++row) {
      CalibrationExample ce;
      ce.logits.assign(logits.data() + row * logits.cols(),
                       logits.data() + (row + 1) * logits.cols());
      ce.labels = example.labels[static_cast<size_t>(row)];
      out.push_back(std::move(ce));
    }
  }
  return out;
}

}  // namespace doduo::core
