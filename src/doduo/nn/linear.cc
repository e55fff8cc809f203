#include "doduo/nn/linear.h"

#include <cmath>
#include <utility>

#include "doduo/nn/ops.h"

namespace doduo::nn {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features,
               util::Rng* rng)
    : w_(name + ".w", {in_features, out_features}),
      b_(name + ".b", {out_features}) {
  if (rng != nullptr) {
    const float limit = std::sqrt(
        6.0f / static_cast<float>(in_features + out_features));
    w_.value.FillUniform(rng, limit);
  }
}

bool Linear::QuantView(Int8WeightView* view) {
  if (!QuantEnabled()) return false;
  if (w_.prequant != nullptr && w_.prequant_revision == w_.revision) {
    *view = View(*w_.prequant);
    return true;
  }
  if (!qcache_valid_ || qcache_revision_ != w_.revision) {
    QuantizeWeight(w_.value, &qcache_);
    qcache_revision_ = w_.revision;
    qcache_valid_ = true;
  }
  *view = View(qcache_);
  return true;
}

const Tensor& Linear::Forward(const Tensor& x) {
  input_ = &x;
  Int8WeightView qw;
  if (QuantView(&qw)) {
    Int8Linear(x, qw, std::as_const(b_.value).data(), &output_);
    return output_;
  }
  MatMul(x, w_.value, &output_);
  AddRowBroadcast(&output_, b_.value);
  return output_;
}

Tensor& Linear::ForwardNoBias(const Tensor& x) {
  input_ = &x;
  Int8WeightView qw;
  if (QuantView(&qw)) {
    Int8Linear(x, qw, /*bias=*/nullptr, &output_);
    return output_;
  }
  MatMul(x, w_.value, &output_);
  return output_;
}

const Tensor& Linear::Backward(const Tensor& grad_out) {
  // dW += xᵀ · dy, db += column-sum(dy), dx = dy · Wᵀ.
  AccumulateParameterGradients(grad_out);
  MatMulTransposedB(grad_out, w_.value, &grad_input_);
  return grad_input_;
}

void Linear::AccumulateParameterGradients(const Tensor& grad_out) {
  DODUO_CHECK(input_ != nullptr) << "Backward before Forward";
  DODUO_CHECK_EQ(grad_out.rows(), input_->rows());
  DODUO_CHECK_EQ(grad_out.cols(), w_.value.cols());
  MatMulTransposedAAccum(*input_, grad_out, &w_.grad);
  ColumnSumAccum(grad_out, &b_.grad);
}

}  // namespace doduo::nn
