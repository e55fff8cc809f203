#ifndef DODUO_NN_DISPATCH_H_
#define DODUO_NN_DISPATCH_H_

// Kernel dispatch decisions shared by the nn sources (not part of the
// public nn API): when to shard a kernel across the compute pool, and
// whether the SIMD twins run. Both are read once per process. Also the
// register helpers more than one family's AVX-512 twins use.

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "doduo/util/env.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

/// Kernels shard output rows across util::ComputePool() only above this
/// m·k·n volume; below it the fork/join cost dominates and the serial path
/// wins. DODUO_PARALLEL_THRESHOLD overrides the default (the parity and
/// determinism tests set it to 1 so even miniature models exercise the
/// sharded path).
inline bool ShouldParallelize(int64_t m, int64_t k, int64_t n) {
  static const int64_t threshold =
      util::GetEnvInt("DODUO_PARALLEL_THRESHOLD", 64 * 64 * 64);
  return m > 1 && m * k * n >= threshold && util::ComputeThreads() > 1;
}

/// False under DODUO_SIMD=0, which puts every kernel on its scalar
/// reference; each SIMD twin also needs its ISA on this CPU.
inline bool SimdEnabled() {
  static const bool enabled = util::GetEnvInt("DODUO_SIMD", 1) != 0;
  return enabled;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The AVX2 twins run when the CPU has AVX2 and DODUO_SIMD is not 0.
inline bool UseAvx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0 && SimdEnabled();
  return avx2;
}

/// The exp twin and the softmax twins built on it also need FMA.
inline bool UseAvx2Fma() {
  static const bool avx2_fma =
      UseAvx2() && __builtin_cpu_supports("fma") != 0;
  return avx2_fma;
}

/// The AVX-512 kernels (GEMM tile, tanh/GELU, exp, softmax/attention,
/// LayerNorm) run when the CPU has AVX-512F and DODUO_SIMD is not 0. Each
/// gives the bits of the kernel it stands in for, so the choice never
/// changes an output.
inline bool UseAvx512() {
  static const bool avx512 =
      __builtin_cpu_supports("avx512f") != 0 && SimdEnabled();
  return avx512;
}

/// Lanes [0, count) of one 16-lane AVX-512 register, for count of any
/// sign: the masked loads and stores of row tails.
inline __mmask16 LaneMask16(int64_t count) {
  if (count >= 16) return 0xffff;
  return count <= 0 ? 0 : static_cast<__mmask16>((1u << count) - 1);
}

/// 8×8 float transpose in registers: afterwards c[m] holds element m of
/// the eight input rows c[0..7], in row order. The AVX-512 twins that keep
/// one row per lane (softmax sums, LayerNorm) read columns through it.
__attribute__((target("avx512f"))) inline void Transpose8x8(__m256 c[8]) {
  __m256 t[8];
  for (int r = 0; r < 8; r += 2) {
    t[r] = _mm256_unpacklo_ps(c[r], c[r + 1]);
    t[r + 1] = _mm256_unpackhi_ps(c[r], c[r + 1]);
  }
  __m256 u[8];
  for (int r = 0; r < 8; r += 4) {
    u[r] = _mm256_shuffle_ps(t[r], t[r + 2], 0x44);
    u[r + 1] = _mm256_shuffle_ps(t[r], t[r + 2], 0xee);
    u[r + 2] = _mm256_shuffle_ps(t[r + 1], t[r + 3], 0x44);
    u[r + 3] = _mm256_shuffle_ps(t[r + 1], t[r + 3], 0xee);
  }
  for (int m = 0; m < 4; ++m) {
    c[m] = _mm256_permute2f128_ps(u[m], u[m + 4], 0x20);
    c[m + 4] = _mm256_permute2f128_ps(u[m], u[m + 4], 0x31);
  }
}
#endif

}  // namespace doduo::nn

#endif  // DODUO_NN_DISPATCH_H_
