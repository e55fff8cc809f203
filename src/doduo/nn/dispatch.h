#ifndef DODUO_NN_DISPATCH_H_
#define DODUO_NN_DISPATCH_H_

// Kernel dispatch decisions shared by the nn sources (not part of the
// public nn API): when to shard a kernel across the compute pool, and
// whether the SIMD members run. Both are read once per process. The
// register vocabulary the SIMD members are written in is nn/simd.h.

#include <cstdint>

#include "doduo/util/env.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

/// The m·k·n volume at and above which the fp32 kernels shard; below it
/// the fork/join cost dominates and the serial path wins.
inline constexpr int64_t kShardVolume = 64 * 64 * 64;

/// Kernels shard output rows across util::ComputePool() only at or above
/// `volume` (kShardVolume, or a kernel's own measured constant).
/// DODUO_PARALLEL_THRESHOLD, when set, replaces every kernel's volume (the
/// parity and determinism tests set it to 1 so even miniature models
/// exercise the sharded path). Never on a thread whose ParallelFor runs
/// inline (a pool worker, a replica thread): it checks that first, so such
/// a thread takes neither the compute pool's mutex nor the sharding
/// closure.
inline bool ShouldParallelize(int64_t m, int64_t k, int64_t n,
                              int64_t volume = kShardVolume) {
  static const int64_t override_volume =
      util::GetEnvInt("DODUO_PARALLEL_THRESHOLD", -1);
  const int64_t threshold = override_volume >= 0 ? override_volume : volume;
  return m > 1 && m * k * n >= threshold &&
         !util::ThreadPool::RunsInline() && util::ComputeThreads() > 1;
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
#endif

}  // namespace doduo::nn

#endif  // DODUO_NN_DISPATCH_H_
