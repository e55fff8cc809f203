#ifndef DODUO_NN_LAYER_NORM_H_
#define DODUO_NN_LAYER_NORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "doduo/nn/parameter.h"
#include "doduo/nn/tensor.h"

namespace doduo::nn {

/// LayerNorm's forward over the rows of x [m, n]: per row, rstd = 1/σ,
/// normalized = (x − μ)·rstd and out = γ·normalized + β, with the mean and
/// variance summed in double. On CPUs with AVX-512F a kernel that holds
/// eight rows' sums side by side runs instead, bit-identical to the scalar
/// loop (DODUO_SIMD=0 forces the scalar loop; DESIGN.md §9).
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float epsilon, int64_t m, int64_t n, float* normalized,
                   float* rstd, float* out);

/// One member of the LayerNorm forward family behind LayerNormRows. Every
/// member computes the same bits, so they are interchangeable.
struct LayerNormKernel {
  const char* name;
  /// LayerNormRows through this member.
  void (*forward)(const float* x, const float* gamma, const float* beta,
                  float epsilon, int64_t m, int64_t n, float* normalized,
                  float* rstd, float* out);
};

/// Every LayerNorm forward kernel this binary can run on this CPU:
/// "scalar" (the reference) always, then "avx512" where the CPU has it (on
/// AVX2-only CPUs the scalar loop is what runs) — for the cross-kernel
/// bit-equality tests and the per-kernel benches. Unlike LayerNormRows, the
/// list ignores DODUO_SIMD.
std::vector<LayerNormKernel> LayerNormKernels();

/// Row-wise layer normalization with learned gain/bias, as used after every
/// Transformer sub-layer: y = γ * (x - μ) / sqrt(σ² + ε) + β.
class LayerNorm {
 public:
  LayerNorm(std::string name, int64_t dim, float epsilon = 1e-5f);

  /// x: [m, dim] → [m, dim]; caches normalized activations for backward.
  const Tensor& Forward(const Tensor& x);

  /// grad_out: [m, dim] → d(loss)/dx [m, dim]; accumulates γ/β gradients.
  const Tensor& Backward(const Tensor& grad_out);

  ParameterList Parameters() { return {&gamma_, &beta_}; }

  int64_t dim() const { return gamma_.value.dim(0); }

 private:
  Parameter gamma_;  // [dim], initialized to 1
  Parameter beta_;   // [dim], initialized to 0
  float epsilon_;
  Tensor normalized_;  // cached (x - μ)/σ, shape [m, dim]
  Tensor rstd_;        // cached 1/σ per row, shape [m]
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_LAYER_NORM_H_
