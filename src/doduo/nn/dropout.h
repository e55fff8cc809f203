#ifndef DODUO_NN_DROPOUT_H_
#define DODUO_NN_DROPOUT_H_

#include "doduo/nn/tensor.h"
#include "doduo/util/rng.h"

namespace doduo::nn {

/// Inverted dropout: during training, zeroes each activation with
/// probability `rate` and scales survivors by 1/(1-rate); identity during
/// evaluation.
///
/// In evaluation mode or at rate 0 the layer copies nothing: Forward
/// returns `x` itself and the following Backward returns `grad_out` itself,
/// so each argument must stay alive and unchanged while its result is read
/// (for `x`, until Backward). When masking, the layer owns its output and
/// input gradient.
class Dropout {
 public:
  /// `rng` must outlive the layer; it may be nullptr for a layer that never
  /// masks (a model built only to have its weights loaded or adopted).
  /// `rate` in [0, 1).
  Dropout(float rate, util::Rng* rng);

  /// Switches between training (masking) and evaluation (identity) mode.
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  const Tensor& Forward(const Tensor& x);
  const Tensor& Backward(const Tensor& grad_out);

 private:
  float rate_;
  util::Rng* rng_;
  bool training_ = true;
  Tensor mask_;  // survivor scale per element (0 or 1/(1-rate))
  Tensor output_;
  Tensor grad_input_;
  bool identity_last_forward_ = true;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_DROPOUT_H_
