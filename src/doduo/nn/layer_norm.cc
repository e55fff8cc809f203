#include "doduo/nn/layer_norm.h"

#include <cmath>
#include <utility>
#include <vector>

#include "doduo/nn/dispatch.h"
#include "doduo/nn/simd.h"

namespace doduo::nn {

namespace {

// The scalar reference, one row at a time: the mean and the variance are
// ascending double sums, rstd = 1/sqrt(var + eps) in double, and the
// normalize/affine step is float.
void LayerNormRowsScalar(const float* x, const float* gamma,
                         const float* beta, float epsilon, int64_t m,
                         int64_t n, float* normalized, float* rstd,
                         float* out) {
  for (int64_t i = 0; i < m; ++i) {
    const float* in = x + i * n;
    double mean = 0.0;
    for (int64_t j = 0; j < n; ++j) mean += static_cast<double>(in[j]);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(in[j]) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float r =
        static_cast<float>(1.0 / std::sqrt(var + static_cast<double>(epsilon)));
    rstd[i] = r;
    float* norm = normalized + i * n;
    float* y = out + i * n;
    for (int64_t j = 0; j < n; ++j) {
      norm[j] = (in[j] - static_cast<float>(mean)) * r;
      y[j] = gamma[j] * norm[j] + beta[j];
    }
  }
}

}  // namespace

#if defined(DODUO_X86_SIMD)
DODUO_SIMD_BEGIN("avx2")
namespace simd::avx2 {
namespace {
#include "doduo/nn/layer_norm_simd.inc"
}  // namespace
}  // namespace simd::avx2
DODUO_SIMD_END

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {
namespace {
#include "doduo/nn/layer_norm_simd.inc"
}  // namespace
}  // namespace simd::avx512
DODUO_SIMD_END
#endif  // DODUO_X86_SIMD

namespace {

constexpr LayerNormKernel kScalar{"scalar", &LayerNormRowsScalar};
#if defined(DODUO_X86_SIMD)
constexpr LayerNormKernel kAvx2{"avx2", &simd::avx2::LayerNormRows};
constexpr LayerNormKernel kAvx512{"avx512", &simd::avx512::LayerNormRows};
#endif

// The member LayerNorm::Forward runs.
const LayerNormKernel& Dispatched() {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) return kAvx512;
  if (UseAvx2()) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float epsilon, int64_t m, int64_t n, float* normalized,
                   float* rstd, float* out) {
  Dispatched().forward(x, gamma, beta, epsilon, m, n, normalized, rstd, out);
}

std::vector<LayerNormKernel> LayerNormKernels() {
  std::vector<LayerNormKernel> kernels{kScalar};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0) kernels.push_back(kAvx2);
  if (__builtin_cpu_supports("avx512f") != 0) kernels.push_back(kAvx512);
#endif
  return kernels;
}

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
  LayerNormRows(x.data(), std::as_const(gamma_.value).data(),
                std::as_const(beta_.value).data(), epsilon_, m, n,
                normalized_.data(), rstd_.data(), output_.data());
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
