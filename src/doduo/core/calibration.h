#ifndef DODUO_CORE_CALIBRATION_H_
#define DODUO_CORE_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "doduo/core/model.h"
#include "doduo/table/dataset.h"
#include "doduo/table/serializer.h"

namespace doduo::core {

/// One calibration observation for the type task: the raw logits of a
/// column and its gold label set (one entry for single-label models).
struct CalibrationExample {
  std::vector<float> logits;
  std::vector<int> labels;
};

/// Fits the temperature-scaling parameter T by minimizing validation NLL
/// (Guo et al. 2017): softmax cross-entropy for single-label models,
/// per-class binary cross-entropy for multi-label. One scalar, fit after
/// training, so calibrated confidences change while argmax predictions do
/// not. Returns 1.0 (identity) for an empty or label-less input.
double FitTemperature(const std::vector<CalibrationExample>& examples,
                      bool multi_label);

/// Calibrated top-1 confidence of a logit row: max softmax(z/T) for
/// single-label models, sigmoid(max z / T) for multi-label. `temperature`
/// must be > 0.
double CalibratedConfidence(const float* logits, int64_t num_classes,
                            double temperature, bool multi_label);

/// The predicted classes of a logit row, in ascending order. Single-label:
/// the argmax. Multi-label: every class whose logit is above
/// log(t) − log(1 − t), i.e. sigmoid(z) > t for t = `threshold`; when none
/// is, the argmax. Argmax ties go to the lowest index.
std::vector<int> DecodeClasses(const float* logits, int64_t num_classes,
                               bool multi_label, float threshold);

/// Runs the model forward over `table_indices` (eval mode) and collects
/// one CalibrationExample per labeled column of the type task.
std::vector<CalibrationExample> CollectTypeCalibration(
    DoduoModel* model, const table::TableSerializer* serializer,
    const table::ColumnAnnotationDataset& dataset,
    const std::vector<size_t>& table_indices);

}  // namespace doduo::core

#endif  // DODUO_CORE_CALIBRATION_H_
