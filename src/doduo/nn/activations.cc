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

#if defined(DODUO_X86_SIMD)

// Tanh on eight lanes. Inside the blended domain (|x| < 22) tanh calls
// expm1f with u = 2|x| in [2, 44) or u = -2|x| in (-2, 0], so of expm1f's
// branches only these are live: |u| < 2^-25 (returns u), k = 0, k = -1
// (0.5*ln2 < |u| < 1.5*ln2, u < 0), k in {-3, -2} and k in [3, 63]. The
// k = 1 branch and the |u| >= 27*ln2 early returns cannot occur there.
// tanhf's own |x| < 2^-55 branch (x*(1+x), and x for +-0) needs no
// fallback: for those x the blended path computes 2|x| / (2 - 2|x|) with
// the sign of x, which rounds to x exactly, subnormals and +-0 included.
__attribute__((target("avx2"))) inline __m256 Tanh8Avx2(__m256 x) {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i ix =
      _mm256_andnot_si256(sign, _mm256_castps_si256(x));  // |x| bits
  const __m256i special =
      _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff));  // |x| >= 22
  if (!_mm256_testz_si256(special, special)) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, x);
    for (float& v : lanes) v = Tanh(v);
    return _mm256_load_ps(lanes);
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f);

  // tanh: u = expm1f argument, 2|x| when |x| >= 1, else -2|x|.
  const __m256i big = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff));
  const __m256 neg = _mm256_castsi256_ps(_mm256_andnot_si256(big, sign));
  const __m256 au = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));  // |u|
  const __m256 u = _mm256_xor_ps(au, neg);

  // expm1f argument reduction: k = 0 for |u| <= 0.5*ln2, +-1 below
  // 1.5*ln2, else (int)(u/ln2 +- 0.5); hi - lo = u - k*ln2.
  const __m256i hu = _mm256_castps_si256(au);
  const __m256i tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), hu);
  const __m256i reduce =
      _mm256_cmpgt_epi32(hu, _mm256_set1_epi32(0x3eb17218));
  const __m256i near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592), hu);
  const __m256 k_round = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), u),
                    _mm256_xor_ps(half, neg))));
  const __m256 k_near = _mm256_xor_ps(one, neg);
  const __m256 kf = _mm256_and_ps(
      _mm256_castsi256_ps(reduce),
      _mm256_blendv_ps(k_round, k_near, _mm256_castsi256_ps(near)));
  const __m256i k = _mm256_cvttps_epi32(kf);
  const __m256 hi =
      _mm256_sub_ps(u, _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Lo));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  // Primary range.
  const __m256 hfx = _mm256_mul_ps(half, r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(kQ4),
                           _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5)));
  p = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs, p));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(r, t))));
  // k == 0.
  const __m256 res_k0 =
      _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
  // k != 0.
  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 res_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, ek)), half);
  const __m256i scale = _mm256_slli_epi32(k, 23);
  const __m256 e_minus_r = _mm256_sub_ps(ek, r);
  // k <= -2 or k > 56.
  const __m256 y_far = _mm256_sub_ps(one, e_minus_r);
  const __m256 res_far = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_far), scale)),
      one);
  // 2 <= k < 23: y = (1-2^-k) - (e-r).
  const __m256 t_mid = _mm256_castsi256_ps(
      _mm256_sub_epi32(_mm256_set1_epi32(0x3f800000),
                       _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 y_mid = _mm256_sub_ps(t_mid, e_minus_r);
  const __m256 res_mid =
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_mid), scale));
  // 23 <= k <= 56: y = (r - (e+2^-k)) + 1.
  const __m256 t_high = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_high =
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(ek, t_high)), one);
  const __m256 res_high =
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_high), scale));

  // Select expm1f(u) by branch: k > 56 or k <= -2 is the default.
  const __m256i k_ge2 = _mm256_cmpgt_epi32(k, _mm256_set1_epi32(1));
  const __m256i k_lt23 = _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k);
  const __m256i k_le56 = _mm256_cmpgt_epi32(_mm256_set1_epi32(57), k);
  __m256 em1 = res_far;
  em1 = _mm256_blendv_ps(
      em1, res_mid, _mm256_castsi256_ps(_mm256_and_si256(k_ge2, k_lt23)));
  em1 = _mm256_blendv_ps(
      em1, res_high,
      _mm256_castsi256_ps(_mm256_andnot_si256(k_lt23, k_le56)));
  em1 = _mm256_blendv_ps(
      em1, res_km1,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
  em1 = _mm256_blendv_ps(
      em1, res_k0,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
  em1 = _mm256_blendv_ps(em1, u, _mm256_castsi256_ps(tiny));

  // tanh: 1 - 2/(t+2) for |x| >= 1, else -t/(t+2); then the sign of x.
  const __m256 big_ps = _mm256_castsi256_ps(big);
  const __m256 q = _mm256_div_ps(
      _mm256_blendv_ps(_mm256_xor_ps(em1, _mm256_castsi256_ps(sign)), two,
                       big_ps),
      _mm256_add_ps(em1, two));
  const __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big_ps);
  return _mm256_xor_ps(z, _mm256_and_ps(x, _mm256_castsi256_ps(sign)));
}

__attribute__((target("avx2"))) void TanhRowAvx2(const float* x, float* y,
                                                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Tanh8Avx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = Tanh(x[i]);
}

// out[i] = GeluScalar(x[i]): inner = s*(x + ((c*x)*x)*x), then
// (0.5*x) * (1 + tanh(inner)), in registers.
__attribute__((target("avx2"))) void GeluRowAvx2(const float* x, float* out,
                                                 int64_t n) {
  const __m256 s = _mm256_set1_ps(kSqrt2OverPi);
  const __m256 cubic = _mm256_set1_ps(kGeluCubic);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 cube =
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(cubic, v), v), v);
    const __m256 t = Tanh8Avx2(_mm256_mul_ps(s, _mm256_add_ps(v, cube)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_mul_ps(half, v),
                                            _mm256_add_ps(one, t)));
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
// Tanh16Avx512 is Tanh8Avx2 on sixteen lanes: the same intrinsics in the
// same order, with mask compares and mask blends in place of the vector
// compares and blendv, and integer and/xor/andnot on the bit patterns
// (AVX-512F alone has no float and/xor). A vector with any special lane
// runs the port for all sixteen. The rows run their tails as one masked
// vector whose padding lanes are 0, which takes no special path.

__attribute__((target("avx512f"))) inline __m512i AsInts(__m512 v) {
  return _mm512_castps_si512(v);
}
__attribute__((target("avx512f"))) inline __m512 AsFloats(__m512i v) {
  return _mm512_castsi512_ps(v);
}

__attribute__((target("avx512f"))) inline __m512 Tanh16Avx512(__m512 x) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512i ix = _mm512_andnot_si512(sign, AsInts(x));  // |x| bits
  const __mmask16 special =
      _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x41afffff));  // >= 22
  if (special != 0) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, x);
    for (float& v : lanes) v = Tanh(v);
    return _mm512_load_ps(lanes);
  }
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 half = _mm512_set1_ps(0.5f);

  // tanh: u = expm1f argument, 2|x| when |x| >= 1, else -2|x|.
  const __mmask16 big =
      _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x3f7fffff));
  const __m512i neg = _mm512_maskz_mov_epi32(_mm512_knot(big), sign);
  const __m512 au = _mm512_mul_ps(two, AsFloats(ix));  // |u|
  const __m512 u = AsFloats(_mm512_xor_si512(AsInts(au), neg));

  // expm1f argument reduction, as in Tanh8Avx2.
  const __m512i hu = AsInts(au);
  const __mmask16 tiny =
      _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x33000000), hu);
  const __mmask16 reduce =
      _mm512_cmpgt_epi32_mask(hu, _mm512_set1_epi32(0x3eb17218));
  const __mmask16 near =
      _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x3f851592), hu);
  const __m512 k_round = _mm512_cvtepi32_ps(_mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kInvLn2), u),
                    AsFloats(_mm512_xor_si512(AsInts(half), neg)))));
  const __m512 k_near = AsFloats(_mm512_xor_si512(AsInts(one), neg));
  const __m512 kf =
      _mm512_maskz_mov_ps(reduce, _mm512_mask_blend_ps(near, k_round, k_near));
  const __m512i k = _mm512_cvttps_epi32(kf);
  const __m512 hi =
      _mm512_sub_ps(u, _mm512_mul_ps(kf, _mm512_set1_ps(kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(kf, _mm512_set1_ps(kLn2Lo));
  const __m512 r = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

  // Primary range.
  const __m512 hfx = _mm512_mul_ps(half, r);
  const __m512 hxs = _mm512_mul_ps(r, hfx);
  __m512 p = _mm512_add_ps(_mm512_set1_ps(kQ4),
                           _mm512_mul_ps(hxs, _mm512_set1_ps(kQ5)));
  p = _mm512_add_ps(_mm512_set1_ps(kQ3), _mm512_mul_ps(hxs, p));
  p = _mm512_add_ps(_mm512_set1_ps(kQ2), _mm512_mul_ps(hxs, p));
  p = _mm512_add_ps(_mm512_set1_ps(kQ1), _mm512_mul_ps(hxs, p));
  const __m512 r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, p));
  const __m512 t = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                       _mm512_mul_ps(r, t))));
  // k == 0.
  const __m512 res_k0 =
      _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
  // k != 0.
  const __m512 ek = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
  const __m512 res_km1 =
      _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r, ek)), half);
  const __m512i scale = _mm512_slli_epi32(k, 23);
  const __m512 e_minus_r = _mm512_sub_ps(ek, r);
  // k <= -2 or k > 56.
  const __m512 y_far = _mm512_sub_ps(one, e_minus_r);
  const __m512 res_far =
      _mm512_sub_ps(AsFloats(_mm512_add_epi32(AsInts(y_far), scale)), one);
  // 2 <= k < 23: y = (1-2^-k) - (e-r).
  const __m512 t_mid = AsFloats(
      _mm512_sub_epi32(_mm512_set1_epi32(0x3f800000),
                       _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k)));
  const __m512 y_mid = _mm512_sub_ps(t_mid, e_minus_r);
  const __m512 res_mid = AsFloats(_mm512_add_epi32(AsInts(y_mid), scale));
  // 23 <= k <= 56: y = (r - (e+2^-k)) + 1.
  const __m512 t_high = AsFloats(
      _mm512_slli_epi32(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23));
  const __m512 y_high =
      _mm512_add_ps(_mm512_sub_ps(r, _mm512_add_ps(ek, t_high)), one);
  const __m512 res_high = AsFloats(_mm512_add_epi32(AsInts(y_high), scale));

  // Select expm1f(u) by branch: k > 56 or k <= -2 is the default.
  const __mmask16 k_ge2 = _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(1));
  const __mmask16 k_lt23 =
      _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(23), k);
  const __mmask16 k_le56 =
      _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(57), k);
  __m512 em1 = res_far;
  em1 = _mm512_mask_blend_ps(_mm512_kand(k_ge2, k_lt23), em1, res_mid);
  em1 = _mm512_mask_blend_ps(_mm512_kandn(k_lt23, k_le56), em1, res_high);
  em1 = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), em1, res_km1);
  em1 = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), em1, res_k0);
  em1 = _mm512_mask_blend_ps(tiny, em1, u);

  // tanh: 1 - 2/(t+2) for |x| >= 1, else -t/(t+2); then the sign of x.
  const __m512 q = _mm512_div_ps(
      _mm512_mask_blend_ps(big, AsFloats(_mm512_xor_si512(AsInts(em1), sign)),
                           two),
      _mm512_add_ps(em1, two));
  const __m512 z = _mm512_mask_blend_ps(big, q, _mm512_sub_ps(one, q));
  return AsFloats(
      _mm512_xor_si512(AsInts(z), _mm512_and_si512(AsInts(x), sign)));
}

__attribute__((target("avx512f"))) void TanhRowAvx512(const float* x,
                                                     float* y, int64_t n) {
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 lanes = LaneMask16(n - i);
    _mm512_mask_storeu_ps(y + i, lanes,
                          Tanh16Avx512(_mm512_maskz_loadu_ps(lanes, x + i)));
  }
}

// GeluRowAvx2 on sixteen lanes.
__attribute__((target("avx512f"))) void GeluRowAvx512(const float* x,
                                                     float* out, int64_t n) {
  const __m512 s = _mm512_set1_ps(kSqrt2OverPi);
  const __m512 cubic = _mm512_set1_ps(kGeluCubic);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 one = _mm512_set1_ps(1.0f);
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 lanes = LaneMask16(n - i);
    const __m512 v = _mm512_maskz_loadu_ps(lanes, x + i);
    const __m512 cube =
        _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(cubic, v), v), v);
    const __m512 t = Tanh16Avx512(_mm512_mul_ps(s, _mm512_add_ps(v, cube)));
    _mm512_mask_storeu_ps(
        out + i, lanes,
        _mm512_mul_ps(_mm512_mul_ps(half, v), _mm512_add_ps(one, t)));
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
