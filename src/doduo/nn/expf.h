#ifndef DODUO_NN_EXPF_H_
#define DODUO_NN_EXPF_H_

#include <cstdint>
#include <vector>

namespace doduo::nn {

/// exp in float: a port of glibc 2.36's `__expf_fma` (the ARM
/// optimized-routines algorithm: double-precision evaluation over a
/// 32-entry 2^(i/32) table), with std::fma at exactly the five points that
/// variant fuses. It equals that expf bit for bit, so softmax results do
/// not depend on the host's libm. The scalar reference for ExpfRow.
float Expf(float x);

/// y[i] = Expf(x[i] - shift) for i in [0, n); `y` may alias `x`. On CPUs
/// with AVX-512F an eight-double kernel, else with AVX2 and FMA a
/// four-double one, runs instead; both are bit-identical to the scalar
/// loop (DODUO_SIMD=0 forces the scalar loop; DESIGN.md §9).
void ExpfRow(const float* x, float shift, float* y, int64_t n);

/// One member of the exp family behind ExpfRow. Every member computes the
/// same bits, so they are interchangeable.
struct ExpfKernel {
  const char* name;
  /// y[i] = Expf(x[i] - shift); `y` may alias `x`.
  void (*row)(const float* x, float shift, float* y, int64_t n);
};

/// Every exp row kernel this binary can run on this CPU: "scalar" (the
/// port) always, then "avx2" (AVX2 + FMA) and "avx512" where the CPU has
/// them — for the cross-kernel bit-equality tests and the per-kernel
/// benches. Unlike ExpfRow, the list ignores DODUO_SIMD.
std::vector<ExpfKernel> ExpfKernels();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace internal {
/// ExpfRow's SIMD twins over several rows, in place: rows[r][j] =
/// Expf(rows[r][j] - shift[r]) for r in [0, count), j in [0, n). The
/// softmax twins call them by name, one call per block of rows, so that
/// each of those runs one ISA end to end; the AVX-512 one loads its table
/// registers once per call. The caller checks the CPU first (UseAvx2Fma or
/// UseAvx512, nn/dispatch.h).
__attribute__((target("avx2,fma"), noinline)) void ExpfRowsAvx2Fma(
    float* const* rows, const float* shift, int count, int64_t n);
__attribute__((target("avx512f"), noinline)) void ExpfRowsAvx512(
    float* const* rows, const float* shift, int count, int64_t n);
}  // namespace internal
#endif

}  // namespace doduo::nn

#endif  // DODUO_NN_EXPF_H_
