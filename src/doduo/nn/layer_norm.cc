#include "doduo/nn/layer_norm.h"

#include <cmath>
#include <utility>

namespace doduo::nn {

LayerNorm::LayerNorm(std::string name, int64_t dim, float epsilon)
    : gamma_(name + ".gamma", {dim}),
      beta_(name + ".beta", {dim}),
      epsilon_(epsilon) {
  gamma_.value.Fill(1.0f);
}

const Tensor& LayerNorm::Forward(const Tensor& x) {
  DODUO_CHECK_EQ(x.ndim(), 2);
  DODUO_CHECK_EQ(x.cols(), dim());
  const int64_t m = x.rows();
  const int64_t n = x.cols();
  normalized_.ResizeUninitialized({m, n});
  rstd_.ResizeUninitialized({m});
  output_.ResizeUninitialized({m, n});
  const float* g = std::as_const(gamma_.value).data();
  const float* b = std::as_const(beta_.value).data();
  for (int64_t i = 0; i < m; ++i) {
    const float* in = x.row(i);
    double mean = 0.0;
    for (int64_t j = 0; j < n; ++j) mean += static_cast<double>(in[j]);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(in[j]) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float rstd =
        static_cast<float>(1.0 / std::sqrt(var + static_cast<double>(epsilon_)));
    rstd_.at(i) = rstd;
    float* norm = normalized_.row(i);
    float* out = output_.row(i);
    for (int64_t j = 0; j < n; ++j) {
      norm[j] = (in[j] - static_cast<float>(mean)) * rstd;
      out[j] = g[j] * norm[j] + b[j];
    }
  }
  return output_;
}

const Tensor& LayerNorm::Backward(const Tensor& grad_out) {
  DODUO_CHECK(!normalized_.empty()) << "Backward before Forward";
  DODUO_CHECK(SameShape(grad_out, normalized_));
  DODUO_CHECK(SameShape(gamma_.grad, gamma_.value))
      << "no gradient storage (an inference-only replica cannot train)";
  const int64_t m = grad_out.rows();
  const int64_t n = grad_out.cols();
  grad_input_.ResizeUninitialized({m, n});
  const float* g = std::as_const(gamma_.value).data();
  float* g_grad = gamma_.grad.data();
  float* b_grad = beta_.grad.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* dy = grad_out.row(i);
    const float* xn = normalized_.row(i);
    float* dx = grad_input_.row(i);
    // dγ_j += dy_j * x̂_j ; dβ_j += dy_j (summed over rows).
    double mean_dxn = 0.0;   // mean over j of dy_j γ_j
    double mean_dxnx = 0.0;  // mean over j of dy_j γ_j x̂_j
    for (int64_t j = 0; j < n; ++j) {
      g_grad[j] += dy[j] * xn[j];
      b_grad[j] += dy[j];
      const double dxn = static_cast<double>(dy[j]) * static_cast<double>(g[j]);
      mean_dxn += dxn;
      mean_dxnx += dxn * static_cast<double>(xn[j]);
    }
    mean_dxn /= static_cast<double>(n);
    mean_dxnx /= static_cast<double>(n);
    const float rstd = rstd_.at(i);
    for (int64_t j = 0; j < n; ++j) {
      const double dxn = static_cast<double>(dy[j]) * static_cast<double>(g[j]);
      dx[j] = static_cast<float>(
          static_cast<double>(rstd) *
          (dxn - mean_dxn - static_cast<double>(xn[j]) * mean_dxnx));
    }
  }
  return grad_input_;
}

}  // namespace doduo::nn
