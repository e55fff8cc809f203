// Test oracle for the softmax kernels: a plain scalar row softmax over
// materialized logits, with nn::Expf as its exp. SoftmaxRows,
// ScaleMaskSoftmaxRows and AttentionHeadForward (and their SIMD twins)
// must match it bit for bit.

#ifndef DODUO_TESTS_NN_SOFTMAX_ORACLE_H_
#define DODUO_TESTS_NN_SOFTMAX_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>

#include "doduo/nn/expf.h"
#include "doduo/nn/tensor.h"

namespace doduo::nn {

// Row softmax in scalar ops with Expf: max, exp(t - max) with an
// ascending-j double sum, normalize. Non-finite rows follow the documented
// contract: any NaN → all NaN; else +inf logits share the mass; all -inf →
// uniform.
inline void OracleSoftmaxRows(const Tensor& logits, Tensor* probs) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const int64_t n = logits.cols();
  probs->ResizeUninitialized(logits.shape());
  for (int64_t i = 0; i < logits.rows(); ++i) {
    const float* t = logits.row(i);
    float* p = probs->row(i);
    bool nan = false;
    int64_t num_inf = 0;
    float max_logit = -kInf;
    for (int64_t j = 0; j < n; ++j) {
      nan = nan || std::isnan(t[j]);
      num_inf += t[j] == kInf;
      if (t[j] > max_logit) max_logit = t[j];
    }
    if (nan) {
      std::fill(p, p + n, std::numeric_limits<float>::quiet_NaN());
    } else if (num_inf > 0) {
      const float share = 1.0f / static_cast<float>(num_inf);
      for (int64_t j = 0; j < n; ++j) p[j] = t[j] == kInf ? share : 0.0f;
    } else if (max_logit == -kInf) {
      std::fill(p, p + n, 1.0f / static_cast<float>(n));
    } else {
      double total = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        p[j] = Expf(t[j] - max_logit);
        total += static_cast<double>(p[j]);
      }
      const float inv = static_cast<float>(1.0 / total);
      for (int64_t j = 0; j < n; ++j) p[j] *= inv;
    }
  }
}

}  // namespace doduo::nn

#endif  // DODUO_TESTS_NN_SOFTMAX_ORACLE_H_
