#include "doduo/nn/expf.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "doduo/nn/dispatch.h"
#include "doduo/nn/simd.h"

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

// --- SIMD members -----------------------------------------------------------
//
// ExpfRow's AVX2+FMA and AVX-512 members and their several-row forms
// (internal::ExpfRows*, one call per softmax block) are one body over the
// SIMD trait (nn/expf_simd.inc), built per width. Besides Expf they are
// the only functions in the tree compiled with FMA enabled, and the
// internal::ExpfRows* entry points are noinline so they cannot be merged
// into a caller whose mul+add would then be contracted (DESIGN.md §9).
// Selected once per process (UseAvx512, then UseAvx2Fma); DODUO_SIMD=0
// forces the scalar loop.

#if defined(DODUO_X86_SIMD)
DODUO_SIMD_BEGIN("avx2,fma")
namespace simd::avx2 {
namespace {
#include "doduo/nn/expf_simd.inc"
}  // namespace
}  // namespace simd::avx2

void internal::ExpfRowsAvx2Fma(float* const* rows, const float* shift,
                               int count, int64_t n) {
  simd::avx2::ExpfRows(rows, shift, count, n);
}
DODUO_SIMD_END

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {
namespace {
#include "doduo/nn/expf_simd.inc"
}  // namespace
}  // namespace simd::avx512

void internal::ExpfRowsAvx512(float* const* rows, const float* shift,
                              int count, int64_t n) {
  simd::avx512::ExpfRows(rows, shift, count, n);
}
DODUO_SIMD_END
#endif  // DODUO_X86_SIMD

namespace {

void ExpfRowScalar(const float* x, float shift, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = Expf(x[i] - shift);
}

constexpr ExpfKernel kScalar{"scalar", &ExpfRowScalar};
#if defined(DODUO_X86_SIMD)
constexpr ExpfKernel kAvx2{"avx2", &simd::avx2::ExpfRow};
constexpr ExpfKernel kAvx512{"avx512", &simd::avx512::ExpfRow};
#endif

// The member ExpfRow runs.
const ExpfKernel& Dispatched() {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) return kAvx512;
  if (UseAvx2Fma()) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

void ExpfRow(const float* x, float shift, float* y, int64_t n) {
  Dispatched().row(x, shift, y, n);
}

std::vector<ExpfKernel> ExpfKernels() {
  std::vector<ExpfKernel> kernels{kScalar};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    kernels.push_back(kAvx2);
  }
  if (__builtin_cpu_supports("avx512f") != 0) kernels.push_back(kAvx512);
#endif
  return kernels;
}

}  // namespace doduo::nn
