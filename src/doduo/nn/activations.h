#ifndef DODUO_NN_ACTIVATIONS_H_
#define DODUO_NN_ACTIVATIONS_H_

#include <cstdint>
#include <vector>

#include "doduo/nn/tensor.h"

namespace doduo::nn {

/// tanh in float: a line-for-line port of the fdlibm tanhf/expm1f pair that
/// glibc up to 2.40 ships, in plain IEEE float ops with no FMA. It equals
/// that tanhf bit for bit, so tanh and GELU results do not depend on the
/// host's libm. The scalar reference for TanhRow.
float Tanh(float x);

/// y[i] = Tanh(x[i]) for i in [0, n); `y` may alias `x`. On CPUs with
/// AVX-512F a 16-lane kernel, else with AVX2 an 8-lane one, runs instead;
/// both are bit-identical to Tanh (DODUO_SIMD=0 forces the scalar loop;
/// DESIGN.md §9).
void TanhRow(const float* x, float* y, int64_t n);

/// One member of the tanh family behind TanhRow and the GELU layers. Every
/// member computes the same bits, so they are interchangeable.
struct TanhKernel {
  const char* name;
  /// y[i] = Tanh(x[i]); `y` may alias `x`.
  void (*tanh_row)(const float* x, float* y, int64_t n);
  /// y[i] = GeluScalar(x[i]); `y` may alias `x`.
  void (*gelu_row)(const float* x, float* y, int64_t n);
  /// dx[i] = dy[i] * GeluGradScalar(x[i]); `dx` may alias `x` or `dy`.
  void (*gelu_grad_row)(const float* x, const float* dy, float* dx,
                        int64_t n);
};

/// Every tanh/GELU row kernel this binary can run on this CPU: "scalar"
/// (the port) always, then "avx2" and "avx512" where the CPU has them, the
/// two SIMD members one body built per width (nn/simd.h) — for the
/// cross-kernel bit-equality tests and the per-kernel benches. TanhRow and
/// the GELU layers run the widest member (the scalar one under
/// DODUO_SIMD=0); the list ignores DODUO_SIMD.
std::vector<TanhKernel> TanhKernels();

/// Scalar GELU (tanh approximation, as in BERT) and its derivative.
float GeluScalar(float x);
float GeluGradScalar(float x);

/// Fused FFN epilogue: adds the 1-D `bias` to every row of `pre_act` [m, n]
/// in place, then writes act = gelu(pre_act) — one pass instead of
/// AddRowBroadcast + a Gelu layer that copies its input for backward. The
/// biased pre-activation stays in `pre_act` for GeluBackward.
void BiasGeluForward(Tensor* pre_act, const Tensor& bias, Tensor* act);

/// grad_pre = grad_act ⊙ gelu'(pre_act), the backward of BiasGeluForward
/// with respect to its (biased) pre-activation. Identical math to
/// Gelu::Backward.
///
/// All GELU and tanh layers here are bit-identical to their elementwise
/// GeluScalar / GeluGradScalar / Tanh loops, SIMD or not.
void GeluBackward(const Tensor& pre_act, const Tensor& grad_act,
                  Tensor* grad_pre);

/// Elementwise GELU layer. Backward reads the forward input through a kept
/// pointer, so `x` must stay alive and unchanged until Backward.
class Gelu {
 public:
  const Tensor& Forward(const Tensor& x);
  const Tensor& Backward(const Tensor& grad_out);

 private:
  const Tensor* input_ = nullptr;
  Tensor output_;
  Tensor grad_input_;
};

/// Elementwise ReLU layer. Backward reads the forward input through a kept
/// pointer, so `x` must stay alive and unchanged until Backward.
class Relu {
 public:
  const Tensor& Forward(const Tensor& x);
  const Tensor& Backward(const Tensor& grad_out);

 private:
  const Tensor* input_ = nullptr;
  Tensor output_;
  Tensor grad_input_;
};

/// Elementwise tanh layer; caches the output (tanh' = 1 - tanh²).
class TanhLayer {
 public:
  const Tensor& Forward(const Tensor& x);
  const Tensor& Backward(const Tensor& grad_out);

 private:
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_ACTIVATIONS_H_
