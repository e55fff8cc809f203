#include "doduo/nn/layer_norm.h"

#include <cmath>
#include <utility>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#include "doduo/nn/dispatch.h"

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

#if defined(DODUO_X86_SIMD)

// The AVX-512 twin, eight rows per block with one row per lane: lane r of
// the double accumulators holds row r's mean and variance sums, each
// ascending in j as in the reference (an 8×8 transpose puts column j of
// the eight rows in one register). rstd comes from IEEE sqrt and div,
// which round as the scalar ones do, and each row's normalize/affine step
// runs sixteen floats per register with the reference's op order. Missing
// rows of the last block repeat its row 0 and are not stored.
__attribute__((target("avx512f"))) void LayerNormRowsAvx512(
    const float* x, const float* gamma, const float* beta, float epsilon,
    int64_t m, int64_t n, float* normalized, float* rstd, float* out) {
  const __m512d count = _mm512_set1_pd(static_cast<double>(n));
  for (int64_t i = 0; i < m; i += 8) {
    const float* rows[8];
    for (int r = 0; r < 8; ++r) rows[r] = x + (i + (i + r < m ? r : 0)) * n;
    alignas(64) double sums[8];
    alignas(64) double means[8];

    // mean
    __m512d sum = _mm512_setzero_pd();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 c[8];
      for (int r = 0; r < 8; ++r) c[r] = _mm256_loadu_ps(rows[r] + j);
      Transpose8x8(c);
      for (const __m256& column : c) {
        sum = _mm512_add_pd(sum, _mm512_cvtps_pd(column));
      }
    }
    _mm512_store_pd(sums, sum);
    for (int64_t t = j; t < n; ++t) {
      for (int r = 0; r < 8; ++r) sums[r] += static_cast<double>(rows[r][t]);
    }
    const __m512d mean = _mm512_div_pd(_mm512_load_pd(sums), count);
    _mm512_store_pd(means, mean);

    // variance
    __m512d var = _mm512_setzero_pd();
    for (j = 0; j + 8 <= n; j += 8) {
      __m256 c[8];
      for (int r = 0; r < 8; ++r) c[r] = _mm256_loadu_ps(rows[r] + j);
      Transpose8x8(c);
      for (const __m256& column : c) {
        const __m512d d = _mm512_sub_pd(_mm512_cvtps_pd(column), mean);
        var = _mm512_add_pd(var, _mm512_mul_pd(d, d));
      }
    }
    _mm512_store_pd(sums, var);
    for (int64_t t = j; t < n; ++t) {
      for (int r = 0; r < 8; ++r) {
        const double d = static_cast<double>(rows[r][t]) - means[r];
        sums[r] += d * d;
      }
    }
    var = _mm512_div_pd(_mm512_load_pd(sums), count);
    const __m512d inv = _mm512_div_pd(
        _mm512_set1_pd(1.0),
        _mm512_sqrt_pd(
            _mm512_add_pd(var, _mm512_set1_pd(static_cast<double>(epsilon)))));

    alignas(32) float mean_f[8];
    alignas(32) float rstd_f[8];
    _mm256_store_ps(mean_f, _mm512_cvtpd_ps(mean));
    _mm256_store_ps(rstd_f, _mm512_cvtpd_ps(inv));
    for (int r = 0; r < 8 && i + r < m; ++r) {
      rstd[i + r] = rstd_f[r];
      const __m512 vmean = _mm512_set1_ps(mean_f[r]);
      const __m512 vrstd = _mm512_set1_ps(rstd_f[r]);
      float* norm = normalized + (i + r) * n;
      float* y = out + (i + r) * n;
      for (int64_t t = 0; t < n; t += 16) {
        const __mmask16 lanes = LaneMask16(n - t);
        const __m512 v = _mm512_maskz_loadu_ps(lanes, rows[r] + t);
        const __m512 nv = _mm512_mul_ps(_mm512_sub_ps(v, vmean), vrstd);
        _mm512_mask_storeu_ps(norm + t, lanes, nv);
        const __m512 g = _mm512_maskz_loadu_ps(lanes, gamma + t);
        const __m512 b = _mm512_maskz_loadu_ps(lanes, beta + t);
        _mm512_mask_storeu_ps(y + t, lanes,
                              _mm512_add_ps(_mm512_mul_ps(g, nv), b));
      }
    }
  }
}

#endif  // DODUO_X86_SIMD

}  // namespace

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float epsilon, int64_t m, int64_t n, float* normalized,
                   float* rstd, float* out) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    LayerNormRowsAvx512(x, gamma, beta, epsilon, m, n, normalized, rstd, out);
    return;
  }
#endif
  LayerNormRowsScalar(x, gamma, beta, epsilon, m, n, normalized, rstd, out);
}

std::vector<LayerNormKernel> LayerNormKernels() {
  std::vector<LayerNormKernel> kernels{{"scalar", &LayerNormRowsScalar}};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx512f") != 0) {
    kernels.push_back({"avx512", &LayerNormRowsAvx512});
  }
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
