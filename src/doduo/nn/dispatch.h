#ifndef DODUO_NN_DISPATCH_H_
#define DODUO_NN_DISPATCH_H_

// Kernel dispatch decisions shared by the nn sources (not part of the
// public nn API): when to shard a kernel across the compute pool, and
// whether the AVX2 twins run. Both are read once per process.

#include <cstdint>

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

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The AVX2 twins run when the CPU has AVX2 and DODUO_SIMD is not 0.
inline bool UseAvx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0 &&
                           util::GetEnvInt("DODUO_SIMD", 1) != 0;
  return avx2;
}
#endif

}  // namespace doduo::nn

#endif  // DODUO_NN_DISPATCH_H_
