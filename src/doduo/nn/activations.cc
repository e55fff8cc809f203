#include "doduo/nn/activations.h"

#include <bit>
#include <cstdint>

#include "doduo/nn/dispatch.h"
#include "doduo/nn/simd.h"

namespace doduo::nn {

namespace {

// --- tanh: fdlibm port ----------------------------------------------------
//
// Tanh and Expm1f below port glibc's sysdeps/ieee754/flt-32 s_tanhf.c and
// s_expm1f.c (glibc <= 2.40), which derive from fdlibm:
//
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//   Developed at SunPro, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.
//
// The values are kept operation for operation; only the floating-point
// environment side effects (inexact/underflow flags, errno) are dropped.
// Every op is a single IEEE float op: this file is built without FMA, so
// the compiler cannot contract a mul+add pair.

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }
float FromBits(uint32_t b) { return std::bit_cast<float>(b); }

constexpr float kHuge = 1.0e+30f;
constexpr float kTiny = 1.0e-30f;
constexpr float kOThreshold = 8.8721679688e+01f;  // 0x42b17180
constexpr float kLn2Hi = 6.9313812256e-01f;       // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;       // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;      // 0x3fb8aa3b
// Scaled coefficients related to expm1.
constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb
static_assert(std::bit_cast<uint32_t>(kLn2Hi) == 0x3f317180u);
static_assert(std::bit_cast<uint32_t>(kLn2Lo) == 0x3717f7d1u);
static_assert(std::bit_cast<uint32_t>(kInvLn2) == 0x3fb8aa3bu);
static_assert(std::bit_cast<uint32_t>(kQ1) == 0xbd088889u);
static_assert(std::bit_cast<uint32_t>(kQ2) == 0x3ad00d01u);
static_assert(std::bit_cast<uint32_t>(kQ3) == 0xb8a670cdu);
static_assert(std::bit_cast<uint32_t>(kQ4) == 0x36867e54u);
static_assert(std::bit_cast<uint32_t>(kQ5) == 0xb457edbbu);

float Expm1f(float x) {
  uint32_t hx = Bits(x);
  const uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                      // |x|

  // Filter out huge and non-finite arguments.
  if (hx >= 0x4195b844u) {                    // |x| >= 27*ln2
    if (hx >= 0x42b17218u) {                  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;     // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;  // exp(+-inf)-1
      if (x > kOThreshold) return kHuge * kHuge;           // overflow
    }
    if (xsb != 0) return kTiny - 1.0f;  // x < -27*ln2: -1
  }

  // Argument reduction.
  float c = 0.0f;
  int32_t k;
  if (hx > 0x3eb17218u) {    // |x| > 0.5*ln2
    float hi;
    float lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5*ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) = x
    return x;
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  const uint32_t scale = static_cast<uint32_t>(k) << 23;  // k into exponent
  if (k <= -2 || k > 56) {  // suffices to return exp(x)-1
    const float y = 1.0f - (e - x);
    return FromBits(Bits(y) + scale) - 1.0f;
  }
  float y;
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // t = 1-2^-k
    y = t - (e - x);
  } else {
    t = FromBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += 1.0f;
  }
  return FromBits(Bits(y) + scale);
}

}  // namespace

float Tanh(float x) {
  const uint32_t jx = Bits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  // x is inf or NaN.
  if (ix >= 0x7f800000u) {
    if (!negative) return 1.0f / x + 1.0f;  // tanh(+inf) = +1
    return 1.0f / x - 1.0f;                 // tanh(-inf) = -1, tanh(NaN) = NaN
  }

  float z;
  if (ix < 0x41b00000u) {            // |x| < 22
    if (ix == 0) return x;           // x == +-0
    if (ix < 0x24000000u) {          // |x| < 2^-55
      return x * (1.0f + x);         // tanh(small) = small
    }
    if (ix >= 0x3f800000u) {         // |x| >= 1
      const float t = Expm1f(2.0f * FromBits(ix));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1f(-2.0f * FromBits(ix));
      z = -t / (t + 2.0f);
    }
  } else {                           // |x| >= 22: +-1
    z = 1.0f - kTiny;
  }
  return negative ? -z : z;
}

namespace {

// Constants of the GELU tanh approximation:
// gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x³))).
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubic = 0.044715f;
constexpr float kGeluCubic3 = 3.0f * kGeluCubic;

}  // namespace

// --- SIMD members ------------------------------------------------------------
//
// The tanh/GELU rows are written once over the SIMD trait (nn/tanh_simd.inc)
// and built per width: simd::avx2 (eight lanes) and simd::avx512 (sixteen).
// Only target("avx2") or target("avx512f") is enabled there and nn builds
// with -ffp-contract=off, so no mul+add is contracted. Selected once per
// process (UseAvx512, then UseAvx2); DODUO_SIMD=0 forces the scalar loops.

#if defined(DODUO_X86_SIMD)
DODUO_SIMD_BEGIN("avx2")
namespace simd::avx2 {
namespace {
#include "doduo/nn/tanh_simd.inc"
}  // namespace
}  // namespace simd::avx2
DODUO_SIMD_END

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {
namespace {
#include "doduo/nn/tanh_simd.inc"
}  // namespace
}  // namespace simd::avx512
DODUO_SIMD_END
#endif  // DODUO_X86_SIMD

namespace {

void TanhRowScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = Tanh(x[i]);
}

void GeluRowScalar(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = GeluScalar(x[i]);
}

void GeluGradRowScalar(const float* x, const float* dy, float* dx,
                       int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * GeluGradScalar(x[i]);
}

constexpr TanhKernel kScalar{"scalar", &TanhRowScalar, &GeluRowScalar,
                             &GeluGradRowScalar};
#if defined(DODUO_X86_SIMD)
constexpr TanhKernel kAvx2{"avx2", &simd::avx2::TanhRow,
                           &simd::avx2::GeluRow, &simd::avx2::GeluGradRow};
constexpr TanhKernel kAvx512{"avx512", &simd::avx512::TanhRow,
                             &simd::avx512::GeluRow,
                             &simd::avx512::GeluGradRow};
#endif

// The member the layers run.
const TanhKernel& Dispatched() {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) return kAvx512;
  if (UseAvx2()) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

void TanhRow(const float* x, float* y, int64_t n) {
  Dispatched().tanh_row(x, y, n);
}

std::vector<TanhKernel> TanhKernels() {
  std::vector<TanhKernel> kernels{kScalar};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0) kernels.push_back(kAvx2);
  if (__builtin_cpu_supports("avx512f") != 0) kernels.push_back(kAvx512);
#endif
  return kernels;
}

float GeluScalar(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCubic * x * x * x);
  return 0.5f * x * (1.0f + Tanh(inner));
}

float GeluGradScalar(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + kGeluCubic * x3);
  const float t = Tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float d_inner = kSqrt2OverPi * (1.0f + kGeluCubic3 * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * d_inner;
}

void BiasGeluForward(Tensor* pre_act, const Tensor& bias, Tensor* act) {
  DODUO_CHECK_EQ(pre_act->ndim(), 2);
  DODUO_CHECK_EQ(bias.ndim(), 1);
  DODUO_CHECK_EQ(pre_act->cols(), bias.dim(0));
  act->ResizeUninitialized(pre_act->shape());
  const int64_t n = pre_act->cols();
  const float* b = bias.data();
  for (int64_t i = 0; i < pre_act->rows(); ++i) {
    float* u = pre_act->row(i);
    for (int64_t j = 0; j < n; ++j) u[j] += b[j];
    Dispatched().gelu_row(u, act->row(i), n);
  }
}

void GeluBackward(const Tensor& pre_act, const Tensor& grad_act,
                  Tensor* grad_pre) {
  DODUO_CHECK(SameShape(grad_act, pre_act));
  grad_pre->ResizeUninitialized(grad_act.shape());
  Dispatched().gelu_grad_row(pre_act.data(), grad_act.data(),
                             grad_pre->data(), grad_act.size());
}

const Tensor& Gelu::Forward(const Tensor& x) {
  input_ = &x;
  output_.ResizeUninitialized(x.shape());
  Dispatched().gelu_row(x.data(), output_.data(), x.size());
  return output_;
}

const Tensor& Gelu::Backward(const Tensor& grad_out) {
  DODUO_CHECK(input_ != nullptr) << "Backward before Forward";
  DODUO_CHECK(SameShape(grad_out, *input_));
  grad_input_.ResizeUninitialized(grad_out.shape());
  Dispatched().gelu_grad_row(input_->data(), grad_out.data(),
                             grad_input_.data(), grad_out.size());
  return grad_input_;
}

const Tensor& Relu::Forward(const Tensor& x) {
  input_ = &x;
  output_.ResizeUninitialized(x.shape());
  const float* in = x.data();
  float* out = output_.data();
  for (int64_t i = 0; i < x.size(); ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  return output_;
}

const Tensor& Relu::Backward(const Tensor& grad_out) {
  DODUO_CHECK(input_ != nullptr) << "Backward before Forward";
  DODUO_CHECK(SameShape(grad_out, *input_));
  grad_input_.ResizeUninitialized(grad_out.shape());
  const float* dy = grad_out.data();
  const float* in = input_->data();
  float* dx = grad_input_.data();
  for (int64_t i = 0; i < grad_out.size(); ++i)
    dx[i] = in[i] > 0.0f ? dy[i] : 0.0f;
  return grad_input_;
}

const Tensor& TanhLayer::Forward(const Tensor& x) {
  output_.ResizeUninitialized(x.shape());
  TanhRow(x.data(), output_.data(), x.size());
  return output_;
}

const Tensor& TanhLayer::Backward(const Tensor& grad_out) {
  DODUO_CHECK(SameShape(grad_out, output_));
  grad_input_.ResizeUninitialized(grad_out.shape());
  const float* dy = grad_out.data();
  const float* y = output_.data();
  float* dx = grad_input_.data();
  for (int64_t i = 0; i < grad_out.size(); ++i)
    dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return grad_input_;
}

}  // namespace doduo::nn
