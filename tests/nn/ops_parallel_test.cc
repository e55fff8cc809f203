// Kernel-parity harness for the parallel GEMM family: on ~200 randomized
// shapes, every kernel must produce bit-identical results at 1, 2, and 8
// threads (the sharded path may not change per-element FP operation order),
// and must stay within tolerance of a double-precision naive reference.
//
// Shape coverage includes minimum extents (m=1, k=1, n=1 — zero extents are
// rejected by Tensor itself; the empty-range edge lives in the ThreadPool
// tests), dimensions that do not divide the kernels' k-block size (65, 97,
// 129), and volumes above the parallel-dispatch threshold so the sharded
// path actually executes.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "doduo/nn/ops.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

// Force the parallel dispatch gate open for every shape (default threshold
// would keep small shapes on the serial path and make the parity check
// vacuous for them). Runs at static-init time, before any kernel call
// caches the threshold.
const bool g_force_parallel = [] {
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  return true;
}();

struct Shape {
  int64_t m, k, n;
};

// 200 shapes: hand-picked edges (minimum extents, non-divisible block
// sizes, long-and-thin) plus randomized small shapes and randomized large
// shapes that clear the parallel threshold.
std::vector<Shape> TestShapes() {
  std::vector<Shape> shapes = {
      {1, 1, 1},    {1, 1, 7},    {7, 1, 1},    {1, 9, 1},   {2, 1, 2},
      {1, 64, 64},  {64, 1, 64},  {64, 64, 1},  {3, 65, 4},  {5, 97, 3},
      {2, 129, 2},  {65, 65, 65}, {97, 33, 41}, {128, 1, 128},
      {1, 300, 1},  {300, 1, 1},  {2, 2, 300},  {96, 64, 64},
      {64, 96, 64}, {64, 64, 96},
  };
  util::Rng rng(20260806);
  while (shapes.size() < 140) {  // small randomized shapes
    shapes.push_back({static_cast<int64_t>(1 + rng.NextUint64(40)),
                      static_cast<int64_t>(1 + rng.NextUint64(40)),
                      static_cast<int64_t>(1 + rng.NextUint64(40))});
  }
  while (shapes.size() < 200) {  // large: above the parallel threshold
    shapes.push_back({static_cast<int64_t>(48 + rng.NextUint64(60)),
                      static_cast<int64_t>(48 + rng.NextUint64(60)),
                      static_cast<int64_t>(48 + rng.NextUint64(60))});
  }
  return shapes;
}

struct Inputs {
  Tensor a;      // [m, k]
  Tensor b;      // [k, n]
  Tensor b_t;    // [n, k] = bᵀ
  Tensor a_t;    // [k, m] = aᵀ
  Tensor accum;  // [m, n] random accumulator seed
};

Inputs MakeInputs(const Shape& s, uint64_t seed) {
  Inputs in;
  util::Rng rng(seed);
  in.a = Tensor({s.m, s.k});
  in.b = Tensor({s.k, s.n});
  in.accum = Tensor({s.m, s.n});
  in.a.FillNormal(&rng, 1.0f);
  in.b.FillNormal(&rng, 1.0f);
  in.accum.FillNormal(&rng, 1.0f);
  // Plant exact zeros so the kernels' zero-skip branch is exercised.
  in.a.data()[0] = 0.0f;
  if (s.m * s.k > 3) in.a.data()[3] = 0.0f;
  in.b_t = Tensor({s.n, s.k});
  for (int64_t i = 0; i < s.k; ++i) {
    for (int64_t j = 0; j < s.n; ++j) in.b_t.at(j, i) = in.b.at(i, j);
  }
  in.a_t = Tensor({s.k, s.m});
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.k; ++j) in.a_t.at(j, i) = in.a.at(i, j);
  }
  return in;
}

struct KernelOutputs {
  Tensor mat_mul;
  Tensor transposed_b;
  Tensor transposed_a_accum;
};

KernelOutputs RunAllKernels(const Inputs& in) {
  KernelOutputs out;
  MatMul(in.a, in.b, &out.mat_mul);
  MatMulTransposedB(in.a, in.b_t, &out.transposed_b);
  out.transposed_a_accum = in.accum;
  MatMulTransposedAAccum(in.a_t, in.b, &out.transposed_a_accum);
  return out;
}

void ExpectBitIdentical(const Tensor& serial, const Tensor& parallel,
                        const char* kernel, const Shape& s) {
  ASSERT_EQ(serial.shape(), parallel.shape()) << kernel;
  ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           static_cast<size_t>(serial.size()) * sizeof(float)))
      << kernel << " diverged from serial reference at shape [" << s.m << ","
      << s.k << "," << s.n << "]";
}

class OpsParallelTest : public ::testing::TestWithParam<int> {
 protected:
  ~OpsParallelTest() override { util::SetComputeThreads(1); }
};

TEST_P(OpsParallelTest, AllKernelsMatchSerialReferenceBitForBit) {
  const int threads = GetParam();
  const auto shapes = TestShapes();
  for (size_t idx = 0; idx < shapes.size(); ++idx) {
    const Shape& s = shapes[idx];
    const Inputs in = MakeInputs(s, 1000 + idx);

    util::SetComputeThreads(1);
    const KernelOutputs serial = RunAllKernels(in);

    util::SetComputeThreads(threads);
    const KernelOutputs parallel = RunAllKernels(in);

    ExpectBitIdentical(serial.mat_mul, parallel.mat_mul, "MatMul", s);
    ExpectBitIdentical(serial.transposed_b, parallel.transposed_b,
                       "MatMulTransposedB", s);
    ExpectBitIdentical(serial.transposed_a_accum,
                       parallel.transposed_a_accum, "MatMulTransposedAAccum",
                       s);
    if (HasFatalFailure()) return;
  }
}

TEST_P(OpsParallelTest, MatMulMatchesDoublePrecisionNaiveReference) {
  util::SetComputeThreads(GetParam());
  const auto shapes = TestShapes();
  for (size_t idx = 0; idx < shapes.size(); ++idx) {
    const Shape& s = shapes[idx];
    const Inputs in = MakeInputs(s, 5000 + idx);
    Tensor c;
    MatMul(in.a, in.b, &c);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double expected = 0.0;
        for (int64_t l = 0; l < s.k; ++l) {
          expected +=
              static_cast<double>(in.a.at(i, l)) *
              static_cast<double>(in.b.at(l, j));
        }
        ASSERT_NEAR(c.at(i, j), expected,
                    1e-3 * (1.0 + std::fabs(expected)))
            << "shape [" << s.m << "," << s.k << "," << s.n << "] at (" << i
            << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OpsParallelTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

}  // namespace
}  // namespace doduo::nn
