#ifndef DODUO_NN_EXPF_H_
#define DODUO_NN_EXPF_H_

#include <cstdint>

namespace doduo::nn {

/// exp in float: a port of glibc 2.36's `__expf_fma` (the ARM
/// optimized-routines algorithm: double-precision evaluation over a
/// 32-entry 2^(i/32) table), with std::fma at exactly the five points that
/// variant fuses. It equals that expf bit for bit, so softmax results do
/// not depend on the host's libm. The scalar reference for ExpfRow.
float Expf(float x);

/// y[i] = Expf(x[i] - shift) for i in [0, n); `y` may alias `x`. On CPUs
/// with AVX2 and FMA a four-double kernel that is bit-identical to the
/// scalar loop runs instead (DODUO_SIMD=0 forces the scalar loop;
/// DESIGN.md §9).
void ExpfRow(const float* x, float shift, float* y, int64_t n);

}  // namespace doduo::nn

#endif  // DODUO_NN_EXPF_H_
