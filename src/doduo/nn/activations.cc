#include "doduo/nn/activations.h"

#include <bit>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#include "doduo/nn/dispatch.h"

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

// --- SIMD twins -------------------------------------------------------------
//
// The AVX2 kernels below evaluate exactly the scalar operations above, one
// IEEE op per intrinsic in the same order, so they are bit-identical to
// Tanh / GeluScalar / GeluGradScalar (DESIGN.md §9). Branches become
// blends; a vector with any lane outside the blended domain (|x| >= 22,
// inf, NaN) runs the scalar port for all eight lanes. Only
// target("avx2") is enabled — not FMA — so no mul+add is contracted.
// Selected once per process (UseAvx512, then UseAvx2); DODUO_SIMD=0
// forces the scalar loops.
//
// Each tanh body is written once per ISA, as a template over N vectors
// where every statement acts on all N registers before the next statement
// starts. One vector's tanh is a chain some fifty ops deep, two of them
// divides, so a lone vector waits on latency; N independent chains side
// by side fill the pipeline instead. The rows run groups of kGroup
// vectors and their tails one vector at a time (N = 1). Lanes never mix,
// so N changes no bit. A group with a special lane anywhere reruns vector
// by vector through N = 1, where only the vectors that hold one run the
// port.

#if defined(DODUO_X86_SIMD)

// Vectors per interleaved tanh group.
constexpr int kGroup = 8;

// Tanh on N vectors of eight lanes, in place. Inside the blended domain
// (|x| < 22) tanh calls expm1f with u = 2|x| in [2, 44) or u = -2|x| in
// (-2, 0], so of expm1f's branches only these are live: |u| < 2^-25
// (returns u), k = 0, k = -1 (0.5*ln2 < |u| < 1.5*ln2, u < 0), k in
// {-3, -2} and k in [3, 63]. The k = 1 branch and the |u| >= 27*ln2 early
// returns cannot occur there. tanhf's own |x| < 2^-55 branch (x*(1+x), and
// x for +-0) needs no fallback: for those x the blended path computes
// 2|x| / (2 - 2|x|) with the sign of x, which rounds to x exactly,
// subnormals and +-0 included.
template <int N>
__attribute__((target("avx2"))) inline void TanhAvx2(__m256 (&x)[N]) {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  __m256i ix[N];  // |x| bits
  for (int j = 0; j < N; ++j) {
    ix[j] = _mm256_andnot_si256(sign, _mm256_castps_si256(x[j]));
  }
  __m256i special = _mm256_setzero_si256();  // |x| >= 22
  for (int j = 0; j < N; ++j) {
    special = _mm256_or_si256(
        special, _mm256_cmpgt_epi32(ix[j], _mm256_set1_epi32(0x41afffff)));
  }
  if (!_mm256_testz_si256(special, special)) {
    if constexpr (N == 1) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, x[0]);
      for (float& v : lanes) v = Tanh(v);
      x[0] = _mm256_load_ps(lanes);
    } else {
      for (__m256& v : x) {
        __m256 one_vector[1] = {v};
        TanhAvx2(one_vector);
        v = one_vector[0];
      }
    }
    return;
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f);

  // tanh: u = expm1f argument, 2|x| when |x| >= 1, else -2|x|.
  __m256i big[N];
  __m256 neg[N];
  __m256 au[N];  // |u|
  __m256 u[N];
  for (int j = 0; j < N; ++j) {
    big[j] = _mm256_cmpgt_epi32(ix[j], _mm256_set1_epi32(0x3f7fffff));
  }
  for (int j = 0; j < N; ++j) {
    neg[j] = _mm256_castsi256_ps(_mm256_andnot_si256(big[j], sign));
  }
  for (int j = 0; j < N; ++j) {
    au[j] = _mm256_mul_ps(two, _mm256_castsi256_ps(ix[j]));
  }
  for (int j = 0; j < N; ++j) u[j] = _mm256_xor_ps(au[j], neg[j]);

  // expm1f argument reduction: k = 0 for |u| <= 0.5*ln2, +-1 below
  // 1.5*ln2, else (int)(u/ln2 +- 0.5); hi - lo = u - k*ln2.
  __m256i tiny[N];
  __m256i reduce[N];
  __m256i near[N];
  __m256 k_round[N];
  __m256 kf[N];
  __m256i k[N];
  for (int j = 0; j < N; ++j) {
    tiny[j] = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000),
                                 _mm256_castps_si256(au[j]));
  }
  for (int j = 0; j < N; ++j) {
    reduce[j] = _mm256_cmpgt_epi32(_mm256_castps_si256(au[j]),
                                   _mm256_set1_epi32(0x3eb17218));
  }
  for (int j = 0; j < N; ++j) {
    near[j] = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592),
                                 _mm256_castps_si256(au[j]));
  }
  for (int j = 0; j < N; ++j) {
    k_round[j] = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), u[j]),
                      _mm256_xor_ps(half, neg[j]))));
  }
  for (int j = 0; j < N; ++j) {
    kf[j] = _mm256_and_ps(
        _mm256_castsi256_ps(reduce[j]),
        _mm256_blendv_ps(k_round[j], _mm256_xor_ps(one, neg[j]),
                         _mm256_castsi256_ps(near[j])));
  }
  for (int j = 0; j < N; ++j) k[j] = _mm256_cvttps_epi32(kf[j]);
  __m256 hi[N];
  __m256 lo[N];
  __m256 r[N];
  __m256 c[N];
  for (int j = 0; j < N; ++j) {
    hi[j] = _mm256_sub_ps(u[j], _mm256_mul_ps(kf[j], _mm256_set1_ps(kLn2Hi)));
  }
  for (int j = 0; j < N; ++j) {
    lo[j] = _mm256_mul_ps(kf[j], _mm256_set1_ps(kLn2Lo));
  }
  for (int j = 0; j < N; ++j) r[j] = _mm256_sub_ps(hi[j], lo[j]);
  for (int j = 0; j < N; ++j) {
    c[j] = _mm256_sub_ps(_mm256_sub_ps(hi[j], r[j]), lo[j]);
  }

  // Primary range.
  __m256 hfx[N];
  __m256 hxs[N];
  __m256 p[N];
  for (int j = 0; j < N; ++j) hfx[j] = _mm256_mul_ps(half, r[j]);
  for (int j = 0; j < N; ++j) hxs[j] = _mm256_mul_ps(r[j], hfx[j]);
  for (int j = 0; j < N; ++j) {
    p[j] = _mm256_add_ps(_mm256_set1_ps(kQ4),
                         _mm256_mul_ps(hxs[j], _mm256_set1_ps(kQ5)));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs[j], p[j]));
  }
  __m256 r1[N];
  __m256 t[N];
  __m256 e[N];
  for (int j = 0; j < N; ++j) {
    r1[j] = _mm256_add_ps(one, _mm256_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    t[j] = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1[j], hfx[j]));
  }
  for (int j = 0; j < N; ++j) {
    e[j] = _mm256_mul_ps(
        hxs[j], _mm256_div_ps(_mm256_sub_ps(r1[j], t[j]),
                              _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                            _mm256_mul_ps(r[j], t[j]))));
  }
  // k == 0.
  __m256 res_k0[N];
  for (int j = 0; j < N; ++j) {
    res_k0[j] =
        _mm256_sub_ps(r[j], _mm256_sub_ps(_mm256_mul_ps(r[j], e[j]), hxs[j]));
  }
  // k != 0.
  __m256 ek[N];
  __m256 res_km1[N];
  __m256i scale[N];
  __m256 e_minus_r[N];
  for (int j = 0; j < N; ++j) {
    ek[j] = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(r[j], _mm256_sub_ps(e[j], c[j])), c[j]),
        hxs[j]);
  }
  for (int j = 0; j < N; ++j) {
    res_km1[j] =
        _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r[j], ek[j])), half);
  }
  for (int j = 0; j < N; ++j) scale[j] = _mm256_slli_epi32(k[j], 23);
  for (int j = 0; j < N; ++j) e_minus_r[j] = _mm256_sub_ps(ek[j], r[j]);
  // k <= -2 or k > 56.
  __m256 res_far[N];
  for (int j = 0; j < N; ++j) {
    const __m256 y_far = _mm256_sub_ps(one, e_minus_r[j]);
    res_far[j] = _mm256_sub_ps(
        _mm256_castsi256_ps(
            _mm256_add_epi32(_mm256_castps_si256(y_far), scale[j])),
        one);
  }
  // 2 <= k < 23: y = (1-2^-k) - (e-r).
  __m256 res_mid[N];
  for (int j = 0; j < N; ++j) {
    const __m256 t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f800000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k[j])));
    const __m256 y_mid = _mm256_sub_ps(t_mid, e_minus_r[j]);
    res_mid[j] = _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y_mid), scale[j]));
  }
  // 23 <= k <= 56: y = (r - (e+2^-k)) + 1.
  __m256 res_high[N];
  for (int j = 0; j < N; ++j) {
    const __m256 t_high = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k[j]), 23));
    const __m256 y_high = _mm256_add_ps(
        _mm256_sub_ps(r[j], _mm256_add_ps(ek[j], t_high)), one);
    res_high[j] = _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y_high), scale[j]));
  }

  // Select expm1f(u) by branch: k > 56 or k <= -2 is the default.
  __m256 em1[N];
  for (int j = 0; j < N; ++j) {
    const __m256i k_ge2 = _mm256_cmpgt_epi32(k[j], _mm256_set1_epi32(1));
    const __m256i k_lt23 = _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k[j]);
    const __m256i k_le56 = _mm256_cmpgt_epi32(_mm256_set1_epi32(57), k[j]);
    em1[j] = _mm256_blendv_ps(
        res_far[j], res_mid[j],
        _mm256_castsi256_ps(_mm256_and_si256(k_ge2, k_lt23)));
    em1[j] = _mm256_blendv_ps(
        em1[j], res_high[j],
        _mm256_castsi256_ps(_mm256_andnot_si256(k_lt23, k_le56)));
  }
  for (int j = 0; j < N; ++j) {
    em1[j] = _mm256_blendv_ps(
        em1[j], res_km1[j],
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k[j], _mm256_set1_epi32(-1))));
    em1[j] = _mm256_blendv_ps(
        em1[j], res_k0[j],
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k[j], _mm256_setzero_si256())));
    em1[j] = _mm256_blendv_ps(em1[j], u[j], _mm256_castsi256_ps(tiny[j]));
  }

  // tanh: 1 - 2/(t+2) for |x| >= 1, else -t/(t+2); then the sign of x.
  __m256 q[N];
  for (int j = 0; j < N; ++j) {
    const __m256 big_ps = _mm256_castsi256_ps(big[j]);
    q[j] = _mm256_div_ps(
        _mm256_blendv_ps(_mm256_xor_ps(em1[j], _mm256_castsi256_ps(sign)),
                         two, big_ps),
        _mm256_add_ps(em1[j], two));
  }
  for (int j = 0; j < N; ++j) {
    const __m256 z = _mm256_blendv_ps(q[j], _mm256_sub_ps(one, q[j]),
                                      _mm256_castsi256_ps(big[j]));
    x[j] = _mm256_xor_ps(z, _mm256_and_ps(x[j], _mm256_castsi256_ps(sign)));
  }
}

// One vector of eight lanes.
__attribute__((target("avx2"))) inline __m256 Tanh8Avx2(__m256 x) {
  __m256 v[1] = {x};
  TanhAvx2(v);
  return v[0];
}

// GELU's tanh argument s*(x + ((c*x)*x)*x), and (0.5*x) * (1 + tanh) from
// the tanh, as GeluScalar associates them.
__attribute__((target("avx2"))) inline __m256 GeluInnerAvx2(__m256 v) {
  const __m256 cube = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluCubic), v), v), v);
  return _mm256_mul_ps(_mm256_set1_ps(kSqrt2OverPi), _mm256_add_ps(v, cube));
}
__attribute__((target("avx2"))) inline __m256 GeluOuterAvx2(__m256 v,
                                                            __m256 t) {
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), v),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

__attribute__((target("avx2"))) void TanhRowAvx2(const float* x, float* y,
                                                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 * kGroup <= n; i += 8 * kGroup) {
    __m256 v[kGroup];
    for (int j = 0; j < kGroup; ++j) v[j] = _mm256_loadu_ps(x + i + 8 * j);
    TanhAvx2(v);
    for (int j = 0; j < kGroup; ++j) _mm256_storeu_ps(y + i + 8 * j, v[j]);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Tanh8Avx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = Tanh(x[i]);
}

// out[i] = GeluScalar(x[i]), in registers.
__attribute__((target("avx2"))) void GeluRowAvx2(const float* x, float* out,
                                                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 * kGroup <= n; i += 8 * kGroup) {
    __m256 v[kGroup];
    __m256 t[kGroup];
    for (int j = 0; j < kGroup; ++j) v[j] = _mm256_loadu_ps(x + i + 8 * j);
    for (int j = 0; j < kGroup; ++j) t[j] = GeluInnerAvx2(v[j]);
    TanhAvx2(t);
    for (int j = 0; j < kGroup; ++j) {
      _mm256_storeu_ps(out + i + 8 * j, GeluOuterAvx2(v[j], t[j]));
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i,
                     GeluOuterAvx2(v, Tanh8Avx2(GeluInnerAvx2(v))));
  }
  for (; i < n; ++i) out[i] = GeluScalar(x[i]);
}

// dx[i] = dy[i] * GeluGradScalar(x[i]), with GeluGradScalar's association:
// x3 = (x*x)*x, inner = s*(x + c*x3), d_inner = s*(1 + ((3c)*x)*x).
__attribute__((target("avx2"))) void GeluGradRowAvx2(const float* x,
                                                     const float* dy,
                                                     float* dx, int64_t n) {
  const __m256 s = _mm256_set1_ps(kSqrt2OverPi);
  const __m256 cubic = _mm256_set1_ps(kGeluCubic);
  const __m256 cubic3 = _mm256_set1_ps(kGeluCubic3);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
    const __m256 t = Tanh8Avx2(
        _mm256_mul_ps(s, _mm256_add_ps(v, _mm256_mul_ps(cubic, x3))));
    const __m256 sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
    const __m256 d_inner = _mm256_mul_ps(
        s, _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(cubic3, v), v)));
    const __m256 grad = _mm256_add_ps(
        _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, v), sech2), d_inner));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), grad));
  }
  for (; i < n; ++i) dx[i] = dy[i] * GeluGradScalar(x[i]);
}

// --- AVX-512 twins ----------------------------------------------------------
//
// TanhAvx512 is TanhAvx2 on sixteen lanes: the same intrinsics in the same
// order, with mask compares and mask blends in place of the vector
// compares and blendv, and integer and/xor/andnot on the bit patterns
// (AVX-512F alone has no float and/xor). A vector with any special lane
// runs the port for all sixteen. The rows run their last vector masked,
// with padding lanes 0, which takes no special path.

__attribute__((target("avx512f"))) inline __m512i AsInts(__m512 v) {
  return _mm512_castps_si512(v);
}
__attribute__((target("avx512f"))) inline __m512 AsFloats(__m512i v) {
  return _mm512_castsi512_ps(v);
}

template <int N>
__attribute__((target("avx512f"))) inline void TanhAvx512(__m512 (&x)[N]) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  __m512i ix[N];  // |x| bits
  for (int j = 0; j < N; ++j) {
    ix[j] = _mm512_and_si512(AsInts(x[j]), _mm512_set1_epi32(0x7fffffff));
  }
  __mmask16 special = 0;  // |x| >= 22
  for (int j = 0; j < N; ++j) {
    special = _mm512_kor(special, _mm512_cmpgt_epi32_mask(
                                      ix[j], _mm512_set1_epi32(0x41afffff)));
  }
  if (special != 0) {
    if constexpr (N == 1) {
      alignas(64) float lanes[16];
      _mm512_store_ps(lanes, x[0]);
      for (float& v : lanes) v = Tanh(v);
      x[0] = _mm512_load_ps(lanes);
    } else {
      for (__m512& v : x) {
        __m512 one_vector[1] = {v};
        TanhAvx512(one_vector);
        v = one_vector[0];
      }
    }
    return;
  }
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 half = _mm512_set1_ps(0.5f);

  // tanh: u = expm1f argument, 2|x| when |x| >= 1, else -2|x|.
  __mmask16 big[N];
  __m512i neg[N];
  __m512 au[N];  // |u|
  __m512 u[N];
  for (int j = 0; j < N; ++j) {
    big[j] = _mm512_cmpgt_epi32_mask(ix[j], _mm512_set1_epi32(0x3f7fffff));
  }
  for (int j = 0; j < N; ++j) {
    neg[j] = _mm512_maskz_mov_epi32(_mm512_knot(big[j]), sign);
  }
  for (int j = 0; j < N; ++j) au[j] = _mm512_mul_ps(two, AsFloats(ix[j]));
  for (int j = 0; j < N; ++j) {
    u[j] = AsFloats(_mm512_xor_si512(AsInts(au[j]), neg[j]));
  }

  // expm1f argument reduction, as in TanhAvx2.
  __mmask16 tiny[N];
  __mmask16 reduce[N];
  __mmask16 near[N];
  __m512 k_round[N];
  __m512 kf[N];
  __m512i k[N];
  for (int j = 0; j < N; ++j) {
    tiny[j] =
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x33000000), AsInts(au[j]));
  }
  for (int j = 0; j < N; ++j) {
    reduce[j] =
        _mm512_cmpgt_epi32_mask(AsInts(au[j]), _mm512_set1_epi32(0x3eb17218));
  }
  for (int j = 0; j < N; ++j) {
    near[j] =
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x3f851592), AsInts(au[j]));
  }
  for (int j = 0; j < N; ++j) {
    k_round[j] = _mm512_cvtepi32_ps(_mm512_cvttps_epi32(
        _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kInvLn2), u[j]),
                      AsFloats(_mm512_xor_si512(AsInts(half), neg[j])))));
  }
  for (int j = 0; j < N; ++j) {
    kf[j] = _mm512_maskz_mov_ps(
        reduce[j],
        _mm512_mask_blend_ps(near[j], k_round[j],
                             AsFloats(_mm512_xor_si512(AsInts(one), neg[j]))));
  }
  for (int j = 0; j < N; ++j) k[j] = _mm512_cvttps_epi32(kf[j]);
  __m512 hi[N];
  __m512 lo[N];
  __m512 r[N];
  __m512 c[N];
  for (int j = 0; j < N; ++j) {
    hi[j] = _mm512_sub_ps(u[j], _mm512_mul_ps(kf[j], _mm512_set1_ps(kLn2Hi)));
  }
  for (int j = 0; j < N; ++j) {
    lo[j] = _mm512_mul_ps(kf[j], _mm512_set1_ps(kLn2Lo));
  }
  for (int j = 0; j < N; ++j) r[j] = _mm512_sub_ps(hi[j], lo[j]);
  for (int j = 0; j < N; ++j) {
    c[j] = _mm512_sub_ps(_mm512_sub_ps(hi[j], r[j]), lo[j]);
  }

  // Primary range.
  __m512 hfx[N];
  __m512 hxs[N];
  __m512 p[N];
  for (int j = 0; j < N; ++j) hfx[j] = _mm512_mul_ps(half, r[j]);
  for (int j = 0; j < N; ++j) hxs[j] = _mm512_mul_ps(r[j], hfx[j]);
  for (int j = 0; j < N; ++j) {
    p[j] = _mm512_add_ps(_mm512_set1_ps(kQ4),
                         _mm512_mul_ps(hxs[j], _mm512_set1_ps(kQ5)));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm512_add_ps(_mm512_set1_ps(kQ3), _mm512_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm512_add_ps(_mm512_set1_ps(kQ2), _mm512_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    p[j] = _mm512_add_ps(_mm512_set1_ps(kQ1), _mm512_mul_ps(hxs[j], p[j]));
  }
  __m512 r1[N];
  __m512 t[N];
  __m512 e[N];
  for (int j = 0; j < N; ++j) {
    r1[j] = _mm512_add_ps(one, _mm512_mul_ps(hxs[j], p[j]));
  }
  for (int j = 0; j < N; ++j) {
    t[j] = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1[j], hfx[j]));
  }
  for (int j = 0; j < N; ++j) {
    e[j] = _mm512_mul_ps(
        hxs[j], _mm512_div_ps(_mm512_sub_ps(r1[j], t[j]),
                              _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                            _mm512_mul_ps(r[j], t[j]))));
  }
  // k == 0.
  __m512 res_k0[N];
  for (int j = 0; j < N; ++j) {
    res_k0[j] =
        _mm512_sub_ps(r[j], _mm512_sub_ps(_mm512_mul_ps(r[j], e[j]), hxs[j]));
  }
  // k != 0.
  __m512 ek[N];
  __m512 res_km1[N];
  __m512i scale[N];
  __m512 e_minus_r[N];
  for (int j = 0; j < N; ++j) {
    ek[j] = _mm512_sub_ps(
        _mm512_sub_ps(_mm512_mul_ps(r[j], _mm512_sub_ps(e[j], c[j])), c[j]),
        hxs[j]);
  }
  for (int j = 0; j < N; ++j) {
    res_km1[j] =
        _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r[j], ek[j])), half);
  }
  for (int j = 0; j < N; ++j) scale[j] = _mm512_slli_epi32(k[j], 23);
  for (int j = 0; j < N; ++j) e_minus_r[j] = _mm512_sub_ps(ek[j], r[j]);
  // k <= -2 or k > 56.
  __m512 res_far[N];
  for (int j = 0; j < N; ++j) {
    const __m512 y_far = _mm512_sub_ps(one, e_minus_r[j]);
    res_far[j] = _mm512_sub_ps(
        AsFloats(_mm512_add_epi32(AsInts(y_far), scale[j])), one);
  }
  // 2 <= k < 23: y = (1-2^-k) - (e-r).
  __m512 res_mid[N];
  for (int j = 0; j < N; ++j) {
    const __m512 t_mid = AsFloats(_mm512_sub_epi32(
        _mm512_set1_epi32(0x3f800000),
        _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k[j])));
    const __m512 y_mid = _mm512_sub_ps(t_mid, e_minus_r[j]);
    res_mid[j] = AsFloats(_mm512_add_epi32(AsInts(y_mid), scale[j]));
  }
  // 23 <= k <= 56: y = (r - (e+2^-k)) + 1.
  __m512 res_high[N];
  for (int j = 0; j < N; ++j) {
    const __m512 t_high = AsFloats(_mm512_slli_epi32(
        _mm512_sub_epi32(_mm512_set1_epi32(0x7f), k[j]), 23));
    const __m512 y_high = _mm512_add_ps(
        _mm512_sub_ps(r[j], _mm512_add_ps(ek[j], t_high)), one);
    res_high[j] = AsFloats(_mm512_add_epi32(AsInts(y_high), scale[j]));
  }

  // Select expm1f(u) by branch: k > 56 or k <= -2 is the default.
  __m512 em1[N];
  for (int j = 0; j < N; ++j) {
    const __mmask16 k_ge2 =
        _mm512_cmpgt_epi32_mask(k[j], _mm512_set1_epi32(1));
    const __mmask16 k_lt23 =
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(23), k[j]);
    const __mmask16 k_le56 =
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(57), k[j]);
    em1[j] = _mm512_mask_blend_ps(_mm512_kand(k_ge2, k_lt23), res_far[j],
                                  res_mid[j]);
    em1[j] = _mm512_mask_blend_ps(_mm512_kandn(k_lt23, k_le56), em1[j],
                                  res_high[j]);
  }
  for (int j = 0; j < N; ++j) {
    em1[j] = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k[j], _mm512_set1_epi32(-1)), em1[j],
        res_km1[j]);
    em1[j] = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k[j], _mm512_setzero_si512()), em1[j],
        res_k0[j]);
    em1[j] = _mm512_mask_blend_ps(tiny[j], em1[j], u[j]);
  }

  // tanh: 1 - 2/(t+2) for |x| >= 1, else -t/(t+2); then the sign of x.
  __m512 q[N];
  for (int j = 0; j < N; ++j) {
    q[j] = _mm512_div_ps(
        _mm512_mask_blend_ps(big[j],
                             AsFloats(_mm512_xor_si512(AsInts(em1[j]), sign)),
                             two),
        _mm512_add_ps(em1[j], two));
  }
  for (int j = 0; j < N; ++j) {
    const __m512 z =
        _mm512_mask_blend_ps(big[j], q[j], _mm512_sub_ps(one, q[j]));
    x[j] = AsFloats(
        _mm512_xor_si512(AsInts(z), _mm512_and_si512(AsInts(x[j]), sign)));
  }
}

__attribute__((target("avx512f"))) void TanhRowAvx512(const float* x,
                                                     float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 16 * kGroup <= n; i += 16 * kGroup) {
    __m512 v[kGroup];
    for (int j = 0; j < kGroup; ++j) v[j] = _mm512_loadu_ps(x + i + 16 * j);
    TanhAvx512(v);
    for (int j = 0; j < kGroup; ++j) _mm512_storeu_ps(y + i + 16 * j, v[j]);
  }
  for (; i < n; i += 16) {
    const __mmask16 lanes = LaneMask16(n - i);
    __m512 v[1] = {_mm512_maskz_loadu_ps(lanes, x + i)};
    TanhAvx512(v);
    _mm512_mask_storeu_ps(y + i, lanes, v[0]);
  }
}

// GeluInnerAvx2 and GeluOuterAvx2 on sixteen lanes.
__attribute__((target("avx512f"))) inline __m512 GeluInnerAvx512(__m512 v) {
  const __m512 cube = _mm512_mul_ps(
      _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluCubic), v), v), v);
  return _mm512_mul_ps(_mm512_set1_ps(kSqrt2OverPi), _mm512_add_ps(v, cube));
}
__attribute__((target("avx512f"))) inline __m512 GeluOuterAvx512(__m512 v,
                                                                __m512 t) {
  return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), v),
                       _mm512_add_ps(_mm512_set1_ps(1.0f), t));
}

// GeluRowAvx2 on sixteen lanes.
__attribute__((target("avx512f"))) void GeluRowAvx512(const float* x,
                                                     float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 16 * kGroup <= n; i += 16 * kGroup) {
    __m512 v[kGroup];
    __m512 t[kGroup];
    for (int j = 0; j < kGroup; ++j) v[j] = _mm512_loadu_ps(x + i + 16 * j);
    for (int j = 0; j < kGroup; ++j) t[j] = GeluInnerAvx512(v[j]);
    TanhAvx512(t);
    for (int j = 0; j < kGroup; ++j) {
      _mm512_storeu_ps(out + i + 16 * j, GeluOuterAvx512(v[j], t[j]));
    }
  }
  for (; i < n; i += 16) {
    const __mmask16 lanes = LaneMask16(n - i);
    const __m512 v = _mm512_maskz_loadu_ps(lanes, x + i);
    __m512 t[1] = {GeluInnerAvx512(v)};
    TanhAvx512(t);
    _mm512_mask_storeu_ps(out + i, lanes, GeluOuterAvx512(v, t[0]));
  }
}

#endif  // DODUO_X86_SIMD

void TanhRowScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = Tanh(x[i]);
}

void GeluRowScalar(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = GeluScalar(x[i]);
}

void GeluRow(const float* x, float* out, int64_t n) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    GeluRowAvx512(x, out, n);
    return;
  }
  if (UseAvx2()) {
    GeluRowAvx2(x, out, n);
    return;
  }
#endif
  GeluRowScalar(x, out, n);
}

void GeluGradRow(const float* x, const float* dy, float* dx, int64_t n) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx2()) {
    GeluGradRowAvx2(x, dy, dx, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * GeluGradScalar(x[i]);
}

}  // namespace

void TanhRow(const float* x, float* y, int64_t n) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    TanhRowAvx512(x, y, n);
    return;
  }
  if (UseAvx2()) {
    TanhRowAvx2(x, y, n);
    return;
  }
#endif
  TanhRowScalar(x, y, n);
}

std::vector<TanhKernel> TanhKernels() {
  std::vector<TanhKernel> kernels{{"scalar", &TanhRowScalar, &GeluRowScalar}};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0) {
    kernels.push_back({"avx2", &TanhRowAvx2, &GeluRowAvx2});
  }
  if (__builtin_cpu_supports("avx512f") != 0) {
    kernels.push_back({"avx512", &TanhRowAvx512, &GeluRowAvx512});
  }
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
    GeluRow(u, act->row(i), n);
  }
}

void GeluBackward(const Tensor& pre_act, const Tensor& grad_act,
                  Tensor* grad_pre) {
  DODUO_CHECK(SameShape(grad_act, pre_act));
  grad_pre->ResizeUninitialized(grad_act.shape());
  GeluGradRow(pre_act.data(), grad_act.data(), grad_pre->data(),
              grad_act.size());
}

const Tensor& Gelu::Forward(const Tensor& x) {
  input_ = &x;
  output_.ResizeUninitialized(x.shape());
  GeluRow(x.data(), output_.data(), x.size());
  return output_;
}

const Tensor& Gelu::Backward(const Tensor& grad_out) {
  DODUO_CHECK(input_ != nullptr) << "Backward before Forward";
  DODUO_CHECK(SameShape(grad_out, *input_));
  grad_input_.ResizeUninitialized(grad_out.shape());
  GeluGradRow(input_->data(), grad_out.data(), grad_input_.data(),
              grad_out.size());
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
