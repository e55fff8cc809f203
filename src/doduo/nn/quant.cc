#include "doduo/nn/quant.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#include "doduo/nn/dispatch.h"
#include "doduo/util/check.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

namespace {

std::atomic<int> g_quant_enabled{-1};  // -1: read DODUO_QUANT on first use

// --- layout ---------------------------------------------------------------
//
// Weight panel p holds output channels [8p, 8p + 8) as int16 k-pairs:
// panel[(kk · 8 + c) · 2 + t] = qw[8p + c][2kk + t]. One 256-bit load is
// then eight channels × two k steps, which _mm256_madd_epi16 multiplies
// against a broadcast activation pair and sums into eight int32 lanes —
// one lane per output channel, so no horizontal reduction is ever needed.
// Activation rows are int16 with the same zero-padded even length.

constexpr int64_t kPanelCols = 8;
constexpr int64_t kPairWidth = 2 * kPanelCols;  // int16s per panel k-pair
constexpr int64_t kTileRows = 4;                // rows per GEMM tile
constexpr int64_t kTileCols = 2 * kPanelCols;   // two panels per tile

int64_t KPairs(int64_t k) { return (k + 1) / 2; }
int64_t NumPanels(int64_t n) { return (n + kPanelCols - 1) / kPanelCols; }

util::Counter* PanelsPackedCounter() {
  static util::Counter* counter = util::GetCounter("quant.panels_packed");
  return counter;
}

// --- activation quantization ----------------------------------------------
//
// scale = max|x| / 127 (1.0 for an all-zero row, so the dequant multiply
// stays finite); q = clamp(round-to-nearest-even(x · (1 / scale)), ±127).
// NaNs never raise the max (the comparison is false) and, like every
// out-of-range conversion, come out as the integer minimum and clamp to
// -127. Both quantizers follow these rules bit for bit.

float RowScale(float max_abs) {
  return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}

int16_t QuantizeScaled(float v) {
  const long r = std::lrintf(v);
  return static_cast<int16_t>(r < -127 ? -127 : (r > 127 ? 127 : r));
}

float QuantizeRowScalar(const float* x, int64_t k, int16_t* q) {
  float max_abs = 0.0f;
  for (int64_t i = 0; i < k; ++i) {
    const float a = std::fabs(x[i]);
    if (a > max_abs) max_abs = a;
  }
  const float scale = RowScale(max_abs);
  const float inv = 1.0f / scale;
  for (int64_t i = 0; i < k; ++i) q[i] = QuantizeScaled(x[i] * inv);
  return scale;
}

// --- int8 GEMM kernels -----------------------------------------------------
//
// Naming contract (enforced by the quant-no-float-in-int8-kernel lint
// rule): functions matching *Int8*Kernel* are the integer-only core — int16
// operands holding int8 values, int32 accumulation, no fp32 math. A tile
// kernel writes the exact int32 sums of up to kTileRows rows × np ≤ 2
// panels to acc[r · kTileCols + c]; the dequant epilogue lives in the
// differently named Dequant* functions. |product| ≤ 127², so every partial
// sum stays within k · 127² ≤ 2³¹ − 1 for k ≤ kMaxInt8DotK: all kernels
// compute the same integers, whatever their summation order.

void Int8TileKernelScalar(const int16_t* qx, int64_t x_stride, int64_t rows,
                          const int16_t* panel, int64_t kpairs, int64_t np,
                          int32_t* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    const int16_t* xr = qx + r * x_stride;
    for (int64_t p = 0; p < np; ++p) {
      const int16_t* w = panel + p * kpairs * kPairWidth;
      int32_t* sums = acc + r * kTileCols + p * kPanelCols;
      for (int64_t c = 0; c < kPanelCols; ++c) sums[c] = 0;
      for (int64_t kk = 0; kk < kpairs; ++kk) {
        const int32_t a0 = xr[2 * kk];
        const int32_t a1 = xr[2 * kk + 1];
        const int16_t* wk = w + kk * kPairWidth;
        for (int64_t c = 0; c < kPanelCols; ++c) {
          sums[c] += a0 * wk[2 * c] + a1 * wk[2 * c + 1];
        }
      }
    }
  }
}

// y[r, j] = (sx[r] · sw[j]) · float(acc[r, j]) (+ bias[j]) — the documented
// operation order; the SIMD epilogue computes the same rounded products.
float Dequant(int32_t acc, float sa, float sw, const float* bias, int64_t j) {
  const float v = sa * sw * static_cast<float>(acc);
  return bias != nullptr ? v + bias[j] : v;
}

void DequantEpilogueScalar(const int32_t* acc, int64_t rows, const float* sx,
                           const float* sw, const float* bias, float* y,
                           int64_t y_stride, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      y[r * y_stride + j] = Dequant(acc[r * kTileCols + j], sx[r], sw[j],
                                    bias, j);
    }
  }
}

// One work item of Int8Linear: up to kTileRows quantized activation rows
// against every output column.
struct Int8Block {
  const int16_t* qx;  // rows × x_stride
  int64_t x_stride;   // 2 · kpairs
  const float* sx;    // [rows]
  int64_t rows;
  const Int8WeightView* w;
  const float* bias;  // [w->out] or nullptr
  float* y;           // first output row; row stride w->out
};

void GemmBlockScalar(const Int8Block& b) {
  alignas(32) int32_t acc[kTileRows * kTileCols];
  const int64_t n = b.w->out;
  const int64_t kpairs = b.x_stride / 2;
  const int64_t num_panels = NumPanels(n);
  for (int64_t p = 0; p < num_panels; p += 2) {
    const int64_t np = std::min<int64_t>(2, num_panels - p);
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelScalar(b.qx, b.x_stride, b.rows,
                         b.w->panels + p * kpairs * kPairWidth, kpairs, np,
                         acc);
    DequantEpilogueScalar(acc, b.rows, b.sx, b.w->scale + j0,
                          b.bias != nullptr ? b.bias + j0 : nullptr,
                          b.y + j0, n, std::min(kTileCols, n - j0));
  }
}

#if defined(DODUO_X86_SIMD)

__attribute__((target("avx2"))) float QuantizeRowAvx2(const float* x,
                                                      int64_t k,
                                                      int16_t* q) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask);
    // maxps returns its second operand when either one is NaN, so the
    // running max goes second: a NaN lane is skipped, as in the scalar loop.
    vmax = _mm256_max_ps(a, vmax);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float max_abs = 0.0f;
  for (const float a : lanes) {
    if (a > max_abs) max_abs = a;
  }
  for (; i < k; ++i) {
    const float a = std::fabs(x[i]);
    if (a > max_abs) max_abs = a;
  }
  const float scale = RowScale(max_abs);
  const float inv = 1.0f / scale;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  i = 0;
  for (; i + 8 <= k; i += 8) {
    // cvtps rounds under the default mode (nearest-even), like lrintf; NaN
    // and out-of-range give INT32_MIN, which clamps to -127 like lrintf's
    // LONG_MIN. |x · inv| ≤ ~127 otherwise, so no finite value differs.
    __m256i r =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
    r = _mm256_max_epi32(_mm256_min_epi32(r, hi), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi32(_mm256_castsi256_si128(r),
                                     _mm256_extracti128_si256(r, 1)));
  }
  for (; i < k; ++i) q[i] = QuantizeScaled(x[i] * inv);
  return scale;
}

// MR rows × NP panels, accumulated vertically: lane c of c[r][p] is output
// channel 8p + c of row r, fed by one madd per k-pair.
template <int MR, int NP>
__attribute__((target("avx2"))) inline void Int8TileKernelAvx2(
    const int16_t* qx, int64_t x_stride, const int16_t* panel, int64_t kpairs,
    int32_t* acc) {
  __m256i c[MR][NP];
  for (int r = 0; r < MR; ++r) {
    for (int p = 0; p < NP; ++p) c[r][p] = _mm256_setzero_si256();
  }
  for (int64_t kk = 0; kk < kpairs; ++kk) {
    __m256i b[NP];
    for (int p = 0; p < NP; ++p) {
      b[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          panel + (p * kpairs + kk) * kPairWidth));
    }
    for (int r = 0; r < MR; ++r) {
      int32_t pair;
      std::memcpy(&pair, qx + r * x_stride + 2 * kk, sizeof(pair));
      const __m256i a = _mm256_set1_epi32(pair);
      for (int p = 0; p < NP; ++p) {
        c[r][p] = _mm256_add_epi32(c[r][p], _mm256_madd_epi16(a, b[p]));
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int p = 0; p < NP; ++p) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(acc + r * kTileCols + p * kPanelCols),
          c[r][p]);
    }
  }
}

__attribute__((target("avx2"))) inline void DequantEpilogueAvx2(
    const int32_t* acc, int64_t rows, const float* sx, const float* sw,
    const float* bias, float* y, int64_t y_stride, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const __m256 sa = _mm256_set1_ps(sx[r]);
    const int32_t* ar = acc + r * kTileCols;
    float* yr = y + r * y_stride;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 scale = _mm256_mul_ps(sa, _mm256_loadu_ps(sw + j));
      __m256 v = _mm256_mul_ps(
          scale, _mm256_cvtepi32_ps(_mm256_load_si256(
                     reinterpret_cast<const __m256i*>(ar + j))));
      if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(yr + j, v);
    }
    for (; j < cols; ++j) yr[j] = Dequant(ar[j], sx[r], sw[j], bias, j);
  }
}

template <int MR>
__attribute__((target("avx2"))) void GemmBlockAvx2Rows(const Int8Block& b) {
  alignas(32) int32_t acc[kTileRows * kTileCols];
  const int64_t n = b.w->out;
  const int64_t kpairs = b.x_stride / 2;
  const int64_t num_panels = NumPanels(n);
  int64_t p = 0;
  for (; p + 2 <= num_panels; p += 2) {
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelAvx2<MR, 2>(b.qx, b.x_stride,
                              b.w->panels + p * kpairs * kPairWidth, kpairs,
                              acc);
    DequantEpilogueAvx2(acc, MR, b.sx, b.w->scale + j0,
                        b.bias != nullptr ? b.bias + j0 : nullptr, b.y + j0,
                        n, std::min(kTileCols, n - j0));
  }
  if (p < num_panels) {
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelAvx2<MR, 1>(b.qx, b.x_stride,
                              b.w->panels + p * kpairs * kPairWidth, kpairs,
                              acc);
    DequantEpilogueAvx2(acc, MR, b.sx, b.w->scale + j0,
                        b.bias != nullptr ? b.bias + j0 : nullptr, b.y + j0,
                        n, n - j0);
  }
}

void GemmBlockAvx2(const Int8Block& b) {
  switch (b.rows) {
    case 4:
      GemmBlockAvx2Rows<4>(b);
      break;
    case 3:
      GemmBlockAvx2Rows<3>(b);
      break;
    case 2:
      GemmBlockAvx2Rows<2>(b);
      break;
    default:
      GemmBlockAvx2Rows<1>(b);
      break;
  }
}

#endif  // DODUO_X86_SIMD

// Per-thread activation scratch: quantized rows and their scales. Grows to
// its high-water mark once and is reused verbatim afterwards, so a
// warmed-up Int8Linear makes no heap allocation (DESIGN §9). Per thread
// because replicas call Int8Linear concurrently; the pool workers of one
// sharded call write disjoint rows of the calling thread's buffers.
struct Int8Scratch {
  std::vector<int16_t> qx;
  std::vector<float> sx;
};

Int8Scratch& ThreadScratch() {
  thread_local Int8Scratch scratch;
  return scratch;
}

template <typename T>
T* GrowTo(std::vector<T>* buffer, int64_t size) {
  // Grows only past the thread's high-water mark, so a warmed-up forward
  // never reaches this resize (ZeroAllocQuantTest counts operator new).
  if (static_cast<int64_t>(buffer->size()) < size) {
    buffer->resize(static_cast<size_t>(size));  // NOLINT(hot-path-alloc)
  }
  return buffer->data();
}

template <float (*QuantizeRow)(const float*, int64_t, int16_t*),
          void (*GemmBlock)(const Int8Block&)>
void Int8LinearWith(const Tensor& x, const Int8WeightView& w,
                    const float* bias, Tensor* y) {
  DODUO_CHECK_EQ(x.ndim(), 2);
  DODUO_CHECK(w.panels != nullptr && w.scale != nullptr);
  DODUO_CHECK_EQ(x.cols(), w.in);
  DODUO_CHECK_LE(w.in, kMaxInt8DotK)
      << "int32 accumulation would overflow: k · 127² > 2³¹ − 1";
  const int64_t m = x.rows();
  const int64_t k = w.in;
  const int64_t n = w.out;
  const int64_t x_stride = 2 * KPairs(k);
  y->ResizeUninitialized({m, n});

  Int8Scratch& scratch = ThreadScratch();
  int16_t* qx = GrowTo(&scratch.qx, m * x_stride);
  float* sx = GrowTo(&scratch.sx, m);
  float* py = y->data();
  auto blocks = [&](int64_t block_begin, int64_t block_end) {
    for (int64_t blk = block_begin; blk < block_end; ++blk) {
      const int64_t r0 = blk * kTileRows;
      const int64_t rows = std::min(kTileRows, m - r0);
      for (int64_t i = r0; i < r0 + rows; ++i) {
        int16_t* qrow = qx + i * x_stride;
        sx[i] = QuantizeRow(x.row(i), k, qrow);
        if (k < x_stride) qrow[k] = 0;  // the odd k's zero partner
      }
      GemmBlock({qx + r0 * x_stride, x_stride, sx + r0, rows, &w, bias,
                 py + r0 * n});
    }
  };
  const int64_t num_blocks = (m + kTileRows - 1) / kTileRows;
  if (ShouldParallelize(m, k, n)) {
    util::ComputePool()->ParallelFor(0, num_blocks, /*grain=*/1, blocks);
  } else {
    blocks(0, num_blocks);
  }
}

constexpr Int8Kernel kScalarKernel{
    "scalar", &QuantizeRowScalar,
    &Int8LinearWith<&QuantizeRowScalar, &GemmBlockScalar>};

#if defined(DODUO_X86_SIMD)
constexpr Int8Kernel kAvx2Kernel{
    "avx2", &QuantizeRowAvx2,
    &Int8LinearWith<&QuantizeRowAvx2, &GemmBlockAvx2>};

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
#endif

// Runtime dispatch, same pattern as ops.cc: AVX2 when the CPU has it,
// DODUO_SIMD=0 forces the scalar reference; cached per process.
const Int8Kernel& PickInt8Kernel() {
  static const Int8Kernel& kernel = []() -> const Int8Kernel& {
#if defined(DODUO_X86_SIMD)
    if (SimdEnabled() && CpuHasAvx2()) {
      return kAvx2Kernel;
    }
#endif
    return kScalarKernel;
  }();
  return kernel;
}

}  // namespace

bool QuantEnabled() {
  int v = g_quant_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = util::GetEnvInt("DODUO_QUANT", 0) != 0 ? 1 : 0;
    g_quant_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetQuantEnabled(bool enabled) {
  g_quant_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

const char* Int8KernelName() { return PickInt8Kernel().name; }

std::vector<Int8Kernel> Int8Kernels() {
  std::vector<Int8Kernel> kernels{kScalarKernel};
#if defined(DODUO_X86_SIMD)
  if (CpuHasAvx2()) kernels.push_back(kAvx2Kernel);
#endif
  return kernels;
}

void PackInt8Panels(const int8_t* q, int64_t out, int64_t in,
                    std::vector<int16_t>* panels) {
  const int64_t kpairs = KPairs(in);
  // Built once per weight (QuantizeWeight's lazy cache, or a checkpoint
  // load), never on a steady-state forward.
  const auto size = static_cast<size_t>(NumPanels(out) * kpairs * kPairWidth);
  panels->assign(size, int16_t{0});  // NOLINT(hot-path-alloc)
  int16_t* dst = panels->data();
  for (int64_t j = 0; j < out; ++j) {
    int16_t* panel = dst + (j / kPanelCols) * kpairs * kPairWidth;
    const int64_t c = j % kPanelCols;
    const int8_t* row = q + j * in;
    for (int64_t l = 0; l < in; ++l) {
      panel[((l / 2) * kPanelCols + c) * 2 + l % 2] = row[l];
    }
  }
  PanelsPackedCounter()->Increment();
}

void QuantizeWeight(const Tensor& w, QuantizedWeight* out) {
  DODUO_CHECK_EQ(w.ndim(), 2);
  const int64_t in = w.rows();
  const int64_t out_channels = w.cols();
  out->in = in;
  out->out = out_channels;
  // One-time lazy quantization: Linear::QuantView caches the result per
  // weight revision, so steady-state forwards never reach these resizes.
  out->q.resize(static_cast<size_t>(in * out_channels));  // NOLINT(hot-path-alloc)
  out->scale.resize(static_cast<size_t>(out_channels));   // NOLINT(hot-path-alloc)
  const float* wd = w.data();
  for (int64_t j = 0; j < out_channels; ++j) {
    float max_abs = 0.0f;
    for (int64_t i = 0; i < in; ++i) {
      const float a = std::fabs(wd[i * out_channels + j]);
      if (a > max_abs) max_abs = a;
    }
    const float scale = RowScale(max_abs);
    out->scale[static_cast<size_t>(j)] = scale;
    const float inv = 1.0f / scale;
    int8_t* qrow = out->q.data() + j * in;
    for (int64_t i = 0; i < in; ++i) {
      qrow[i] =
          static_cast<int8_t>(QuantizeScaled(wd[i * out_channels + j] * inv));
    }
  }
  PackInt8Panels(out->q.data(), out_channels, in, &out->panels);
}

void Int8Linear(const Tensor& x, const Int8WeightView& w, const float* bias,
                Tensor* y) {
  PickInt8Kernel().linear(x, w, bias, y);
}

}  // namespace doduo::nn
