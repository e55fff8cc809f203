#include "doduo/nn/expf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#include "doduo/nn/dispatch.h"

namespace doduo::nn {

namespace {

// --- expf: port of glibc 2.36 __expf_fma ----------------------------------
//
// Expf ports sysdeps/ieee754/flt-32/e_expf.c and its e_exp2f_data.c table
// as glibc 2.36 ships them (the algorithm and constants come from ARM's
// optimized-routines, by Szabolcs Nagy). exp(x) = 2^(k/N) * 2^(r/N) with
// N = 32: k/N is x/ln2 rounded to 1/32, the table holds 2^(i/32), and a
// cubic in r covers the rest, all in double. glibc builds the file a
// second time with -mfma as __expf_fma and picks it on CPUs with FMA; the
// compiler contracts exactly five mul+add pairs there, and this port calls
// std::fma at those five points so it equals that variant bit for bit.
// Only the errno side effects of the overflow/underflow returns are
// dropped.

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

constexpr int kTableBits = 5;
constexpr uint64_t kTableSize = uint64_t{1} << kTableBits;

// kTable[i] = bits(2^(i/32)) - (i << 47), so that adding k << 47 to
// kTable[k % 32] builds the double 2^(k/32) for any |k| < 150 * 32.
alignas(64) constexpr uint64_t kTable[kTableSize] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln2
constexpr double kShift = 0x1.8p+52;  // rounds to an integer in the low bits
constexpr double kC0 = 0x1.c6af84b912394p-20;  // poly / 32^3
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;  // poly / 32^2
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;   // poly / 32

// |x| >= 88 (or inf/NaN) when the top 12 bits of |x| reach 88's.
constexpr uint32_t kTop12Of88 = 0x42b;
constexpr float kOverflow = 0x1.62e42ep6f;       // above: exp overflows
constexpr float kUnderflow = -0x1.9fe368p6f;     // below: exp rounds to 0
constexpr float kMayUnderflow = -0x1.9d1d9ep6f;  // below: 2^-149 or 0

// The scalar port is built twice, generic and with FMA, and the loader
// picks one per CPU (an ifunc): std::fma is then one instruction instead
// of a libm call. Both equal the port's definition, since its body has no
// mul+add pair the compiler could contract besides the explicit std::fma.
// Not under TSan: its instrumented ifunc resolver runs before TSan starts.
#if defined(DODUO_X86_SIMD) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DODUO_EXPF_CLONES __attribute__((target_clones("fma", "default")))
#else
#define DODUO_EXPF_CLONES
#endif

}  // namespace

DODUO_EXPF_CLONES float Expf(float x) {
  const uint32_t abstop = (Bits(x) >> 20) & 0x7ffu;
  if (abstop >= kTop12Of88) {
    // |x| >= 88 or x is NaN.
    if (Bits(x) == Bits(-std::numeric_limits<float>::infinity())) {
      return 0.0f;
    }
    if (abstop >= 0x7f8u) return x + x;  // +inf or NaN
    if (x > kOverflow) return std::numeric_limits<float>::infinity();
    if (x < kUnderflow) return 0.0f;
    // glibc returns 0x1.4p-75f * 0x1.4p-75f here, which rounds to 2^-149.
    if (x < kMayUnderflow) return 0x1p-149f;
  }
  const double xd = x;
  // x*N/ln2 = k + r with r in [-1/2, 1/2] and integer k.
  const double kd_shifted = std::fma(kInvLn2N, xd, kShift);
  const uint64_t ki = std::bit_cast<uint64_t>(kd_shifted);
  const double kd = kd_shifted - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1).
  const uint64_t t = kTable[ki % kTableSize] + (ki << (52 - kTableBits));
  const double s = std::bit_cast<double>(t);
  const double z = std::fma(kC0, r, kC1);
  const double r2 = r * r;
  double y = std::fma(kC2, r, 1.0);
  y = std::fma(z, r2, y);
  y = y * s;
  return static_cast<float>(y);
}

namespace {

// --- SIMD twins -----------------------------------------------------------
//
// ExpfRowAvx2Fma evaluates Expf's main path on four doubles per register:
// each std::fma above is one _mm256_fmadd_pd, each other op one intrinsic,
// and the table is read by gather. ExpfRowAvx512 does the same on eight
// doubles per register (_mm512_fmadd_pd), reading the table from registers.
// They are the functions in the tree compiled with FMA enabled besides
// Expf, and they hold no other mul+add pair the compiler could contract;
// they are noinline so they cannot be merged into a caller whose mul+add
// would then be contracted (DESIGN.md §9). Lanes below kUnderflow (-inf
// included) are 0, as in the port; any other lane with |x| >= 88 or inf/NaN
// runs the port. Selected once per process (UseAvx512, then UseAvx2Fma);
// DODUO_SIMD=0 forces the scalar loop.

#if defined(DODUO_X86_SIMD)

__attribute__((target("avx2,fma"))) inline __m128 Exp4Avx2Fma(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  const __m256d kd_shifted = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i index =
      _mm256_and_si256(ki, _mm256_set1_epi64x(kTableSize - 1));
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kTable),
                             index, 8),
      _mm256_slli_epi64(ki, 52 - kTableBits));
  const __m256d s = _mm256_castsi256_pd(t);
  const __m256d z =
      _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  y = _mm256_mul_pd(y, s);
  return _mm256_cvtpd_ps(y);
}

// y[l] = Expf(x[l] - shift) for the eight lanes l; y may alias x.
__attribute__((target("avx2,fma"))) inline void Exp8Avx2Fma(const float* x,
                                                            __m256 shift,
                                                            float* y) {
  const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(x), shift);
  const __m256 zero_lanes =
      _mm256_cmp_ps(v, _mm256_set1_ps(kUnderflow), _CMP_LT_OQ);
  const __m256i abs_bits = _mm256_and_si256(_mm256_castps_si256(v),
                                            _mm256_set1_epi32(0x7fffffff));
  const __m256i big =  // |v| >= 88, inf or NaN
      _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(0x42afffff));
  const __m256 e = _mm256_set_m128(Exp4Avx2Fma(_mm256_extractf128_ps(v, 1)),
                                   Exp4Avx2Fma(_mm256_castps256_ps128(v)));
  _mm256_storeu_ps(y, _mm256_andnot_ps(zero_lanes, e));
  int special = _mm256_movemask_ps(
      _mm256_andnot_ps(zero_lanes, _mm256_castsi256_ps(big)));
  if (special != 0) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    for (; special != 0; special &= special - 1) {
      const int lane = __builtin_ctz(static_cast<unsigned>(special));
      y[lane] = Expf(lanes[lane]);
    }
  }
}

// The AVX-512 twin: Exp4Avx2Fma on eight doubles, the same intrinsics in
// the same order. The 32-entry table sits in four registers; two
// permutex2var read entries 0-15 and 16-31 by index bits 0-3, and a blend
// on bit 4 picks between them, with no gather.
__attribute__((target("avx512f"))) inline __m256 Exp8Avx512(
    __m256 x, const __m512d table[4]) {
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d inv_ln2n = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  const __m512d kd_shifted = _mm512_fmadd_pd(inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd_shifted);
  const __m512d kd = _mm512_sub_pd(kd_shifted, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
  const __m512d low = _mm512_permutex2var_pd(table[0], ki, table[1]);
  const __m512d high = _mm512_permutex2var_pd(table[2], ki, table[3]);
  const __mmask8 upper =
      _mm512_test_epi64_mask(ki, _mm512_set1_epi64(kTableSize / 2));
  const __m512i t = _mm512_add_epi64(
      _mm512_castpd_si512(_mm512_mask_blend_pd(upper, low, high)),
      _mm512_slli_epi64(ki, 52 - kTableBits));
  const __m512d s = _mm512_castsi512_pd(t);
  const __m512d z =
      _mm512_fmadd_pd(_mm512_set1_pd(kC0), r, _mm512_set1_pd(kC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  y = _mm512_mul_pd(y, s);
  return _mm512_cvtpd_ps(y);
}

// y[l] = Expf(x[l] - shift) for the lanes l in `lanes`; y may alias x.
// Lanes outside `lanes` are neither read nor written: they hold `shift`,
// so they compute exp(0) and take no special path.
__attribute__((target("avx512f"))) inline void Exp16Avx512(
    const float* x, __m512 shift, float* y, __mmask16 lanes,
    const __m512d table[4]) {
  const __m512 v = _mm512_sub_ps(_mm512_mask_loadu_ps(shift, lanes, x), shift);
  const __mmask16 zero_lanes =
      _mm512_cmp_ps_mask(v, _mm512_set1_ps(kUnderflow), _CMP_LT_OQ);
  const __m512i abs_bits = _mm512_and_si512(_mm512_castps_si512(v),
                                            _mm512_set1_epi32(0x7fffffff));
  const __mmask16 big =  // |v| >= 88, inf or NaN
      _mm512_cmpgt_epi32_mask(abs_bits, _mm512_set1_epi32(0x42afffff));
  const __m512d vd = _mm512_castps_pd(v);
  const __m256 e_low = Exp8Avx512(_mm512_castps512_ps256(v), table);
  const __m256 e_high =
      Exp8Avx512(_mm256_castpd_ps(_mm512_extractf64x4_pd(vd, 1)), table);
  const __m512 e = _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castpd256_pd512(_mm256_castps_pd(e_low)),
      _mm256_castps_pd(e_high), 1));
  _mm512_mask_storeu_ps(y, lanes,
                        _mm512_maskz_mov_ps(_mm512_knot(zero_lanes), e));
  unsigned special = _mm512_kandn(zero_lanes, _mm512_kand(big, lanes));
  if (special != 0) {
    alignas(64) float values[16];
    _mm512_store_ps(values, v);
    for (; special != 0; special &= special - 1) {
      const int lane = __builtin_ctz(special);
      y[lane] = Expf(values[lane]);
    }
  }
}

#endif  // DODUO_X86_SIMD

void ExpfRowScalar(const float* x, float shift, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = Expf(x[i] - shift);
}

}  // namespace

#if defined(DODUO_X86_SIMD)

namespace internal {

// A row tail shorter than eight runs as one padded vector (padding lanes
// hold `shift`, so they compute exp(0)), not through the scalar port.
__attribute__((target("avx2,fma"), noinline)) void ExpfRowAvx2Fma(
    const float* x, float shift, float* y, int64_t n) {
  const __m256 vshift = _mm256_set1_ps(shift);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Exp8Avx2Fma(x + i, vshift, y + i);
  if (i < n) {
    alignas(32) float tail[8];
    std::fill(tail, tail + 8, shift);
    std::copy(x + i, x + n, tail);
    Exp8Avx2Fma(tail, vshift, tail);
    std::copy(tail, tail + (n - i), y + i);
  }
}

// The row tail runs as one masked vector.
__attribute__((target("avx512f"), noinline)) void ExpfRowAvx512(
    const float* x, float shift, float* y, int64_t n) {
  const __m512d table[4] = {
      _mm512_loadu_pd(kTable), _mm512_loadu_pd(kTable + 8),
      _mm512_loadu_pd(kTable + 16), _mm512_loadu_pd(kTable + 24)};
  const __m512 vshift = _mm512_set1_ps(shift);
  for (int64_t i = 0; i < n; i += 16) {
    Exp16Avx512(x + i, vshift, y + i, LaneMask16(n - i), table);
  }
}

}  // namespace internal

#endif  // DODUO_X86_SIMD

void ExpfRow(const float* x, float shift, float* y, int64_t n) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    internal::ExpfRowAvx512(x, shift, y, n);
    return;
  }
  if (UseAvx2Fma()) {
    internal::ExpfRowAvx2Fma(x, shift, y, n);
    return;
  }
#endif
  ExpfRowScalar(x, shift, y, n);
}

std::vector<ExpfKernel> ExpfKernels() {
  std::vector<ExpfKernel> kernels{{"scalar", &ExpfRowScalar}};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    kernels.push_back({"avx2", &internal::ExpfRowAvx2Fma});
  }
  if (__builtin_cpu_supports("avx512f") != 0) {
    kernels.push_back({"avx512", &internal::ExpfRowAvx512});
  }
#endif
  return kernels;
}

}  // namespace doduo::nn
