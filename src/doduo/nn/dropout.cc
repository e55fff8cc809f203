#include "doduo/nn/dropout.h"

namespace doduo::nn {

Dropout::Dropout(float rate, util::Rng* rng) : rate_(rate), rng_(rng) {
  DODUO_CHECK(rate >= 0.0f && rate < 1.0f);
}

const Tensor& Dropout::Forward(const Tensor& x) {
  if (!training_ || rate_ == 0.0f) {
    identity_last_forward_ = true;
    return x;
  }
  identity_last_forward_ = false;
  DODUO_CHECK(rng_ != nullptr) << "dropout in training needs an rng";
  mask_.ResizeUninitialized(x.shape());
  output_.ResizeUninitialized(x.shape());
  const float keep_scale = 1.0f / (1.0f - rate_);
  const float* in = x.data();
  float* mask = mask_.data();
  float* out = output_.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    const float m = rng_->Bernoulli(rate_) ? 0.0f : keep_scale;
    mask[i] = m;
    out[i] = in[i] * m;
  }
  return output_;
}

const Tensor& Dropout::Backward(const Tensor& grad_out) {
  if (identity_last_forward_) return grad_out;
  DODUO_CHECK(SameShape(grad_out, mask_));
  grad_input_.ResizeUninitialized(grad_out.shape());
  const float* dy = grad_out.data();
  const float* mask = mask_.data();
  float* dx = grad_input_.data();
  for (int64_t i = 0; i < grad_out.size(); ++i) dx[i] = dy[i] * mask[i];
  return grad_input_;
}

}  // namespace doduo::nn
