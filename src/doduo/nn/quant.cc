#include "doduo/nn/quant.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "doduo/nn/dispatch.h"
#include "doduo/util/check.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

namespace {

std::atomic<int> g_quant_enabled{-1};  // -1: read DODUO_QUANT on first use

// --- layouts --------------------------------------------------------------
//
// Each kernel packs the [out, in] int8 table its own way (Int8Kernel::pack)
// into 64-byte lines; the layout names below tag what a PackedInt8 holds.
//
// Panels (scalar, avx2): weight panel p holds output channels [8p, 8p + 8)
// as int16 k-pairs: panel[(kk · 8 + c) · 2 + t] = qw[8p + c][2kk + t]. One
// 256-bit load is then eight channels × two k steps, which
// _mm256_madd_epi16 multiplies against a broadcast activation pair and sums
// into eight int32 lanes — one lane per output channel, so no horizontal
// reduction is ever needed. Activation rows are int16 with the same
// zero-padded even length.
//
// AMX blocks: block p holds output channels [16p, 16p + 16) as int8
// k-quads, one 64-byte line per quad: line[kq].bytes[c · 4 + t] =
// qw[16p + c][4kq + t], k zero-padded to a multiple of 64. Sixteen lines
// are one TDPBSSD B tile (16 quads × 16 channels); activation rows are
// int8 with the same padded length, and sixteen rows × 64 k are the A tile.

constexpr char kPanelLayout[] = "panels16";
constexpr char kAmxLayout[] = "amx_blocks";

constexpr int64_t kPanelCols = 8;
constexpr int64_t kPairWidth = 2 * kPanelCols;  // int16s per panel k-pair
constexpr int64_t kTileRows = 4;                // rows per GEMM tile
constexpr int64_t kTileCols = 2 * kPanelCols;   // two panels per tile
constexpr int64_t kLineBytes = sizeof(Int8Line);

int64_t KPairs(int64_t k) { return (k + 1) / 2; }
int64_t NumPanels(int64_t n) { return (n + kPanelCols - 1) / kPanelCols; }

const int8_t* LineBytes(const PackedInt8& packed) {
  return reinterpret_cast<const int8_t*>(packed.lines.data());
}

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
// -127. Every quantizer follows these rules bit for bit.

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
// rule): functions matching *Int8*Kernel* are the integer-only core — int8
// values (in int16 or int8 operands), int32 accumulation, no fp32 math. A
// panel tile kernel writes the exact int32 sums of up to kTileRows rows ×
// np ≤ 2 panels to acc[r · kTileCols + c]; the dequant epilogue lives in
// the differently named Dequant* functions. |product| ≤ 127², so every
// partial sum stays within k · 127² ≤ 2³¹ − 1 for k ≤ kMaxInt8DotK: all
// kernels compute the same integers, whatever their summation order.

// Panel element `index` (in int16 units); the panels are stored as bytes.
int32_t PanelAt(const int8_t* panels, int64_t index) {
  int16_t v = 0;
  std::memcpy(&v, panels + 2 * index, sizeof(v));
  return v;
}

void Int8TileKernelScalar(const int16_t* qx, int64_t x_stride, int64_t rows,
                          const int8_t* panel, int64_t kpairs, int64_t np,
                          int32_t* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    const int16_t* xr = qx + r * x_stride;
    for (int64_t p = 0; p < np; ++p) {
      const int64_t w = p * kpairs * kPairWidth;
      int32_t* sums = acc + r * kTileCols + p * kPanelCols;
      for (int64_t c = 0; c < kPanelCols; ++c) sums[c] = 0;
      for (int64_t kk = 0; kk < kpairs; ++kk) {
        const int32_t a0 = xr[2 * kk];
        const int32_t a1 = xr[2 * kk + 1];
        const int64_t wk = w + kk * kPairWidth;
        for (int64_t c = 0; c < kPanelCols; ++c) {
          sums[c] += a0 * PanelAt(panel, wk + 2 * c) +
                     a1 * PanelAt(panel, wk + 2 * c + 1);
        }
      }
    }
  }
}

// y[r, j] = (sx[r] · sw[j]) · float(acc[r, j]) (+ bias[j]) — the documented
// operation order; the SIMD epilogues compute the same rounded products.
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

// One work item of Int8Linear: up to a block of quantized activation rows
// against every output column.
template <typename Act>
struct Int8Block {
  const Act* qx;      // rows × x_stride
  int64_t x_stride;   // k padded to the kernel's depth
  const float* sx;    // [rows]
  int64_t rows;
  const Int8WeightView* w;
  const float* bias;  // [w->out] or nullptr
  float* y;           // first output row; row stride w->out
};

void GemmBlockScalar(const Int8Block<int16_t>& b) {
  alignas(32) int32_t acc[kTileRows * kTileCols];
  const int64_t n = b.w->out;
  const int64_t kpairs = b.x_stride / 2;
  const int64_t num_panels = NumPanels(n);
  const int8_t* panels = LineBytes(*b.w->packed);
  for (int64_t p = 0; p < num_panels; p += 2) {
    const int64_t np = std::min<int64_t>(2, num_panels - p);
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelScalar(b.qx, b.x_stride, b.rows,
                         panels + 2 * p * kpairs * kPairWidth, kpairs, np,
                         acc);
    DequantEpilogueScalar(acc, b.rows, b.sx, b.w->scale + j0,
                          b.bias != nullptr ? b.bias + j0 : nullptr,
                          b.y + j0, n, std::min(kTileCols, n - j0));
  }
}

void PackPanels(const int8_t* q, int64_t out, int64_t in,
                PackedInt8* packed) {
  const int64_t kpairs = KPairs(in);
  const int64_t bytes = 2 * NumPanels(out) * kpairs * kPairWidth;
  // Built once per weight (QuantizeWeight's lazy cache, or a checkpoint
  // load), never on a steady-state forward.
  packed->lines.assign(  // NOLINT(hot-path-alloc)
      static_cast<size_t>((bytes + kLineBytes - 1) / kLineBytes), Int8Line{});
  auto* dst = reinterpret_cast<int8_t*>(packed->lines.data());
  for (int64_t j = 0; j < out; ++j) {
    const int64_t panel = (j / kPanelCols) * kpairs * kPairWidth;
    const int64_t c = j % kPanelCols;
    const int8_t* row = q + j * in;
    for (int64_t l = 0; l < in; ++l) {
      const int16_t v = row[l];
      std::memcpy(dst + 2 * (panel + ((l / 2) * kPanelCols + c) * 2 + l % 2),
                  &v, sizeof(v));
    }
  }
  packed->layout = kPanelLayout;
  PanelsPackedCounter()->Increment();
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
    const int16_t* qx, int64_t x_stride, const int8_t* panel, int64_t kpairs,
    int32_t* acc) {
  __m256i c[MR][NP];
  for (int r = 0; r < MR; ++r) {
    for (int p = 0; p < NP; ++p) c[r][p] = _mm256_setzero_si256();
  }
  for (int64_t kk = 0; kk < kpairs; ++kk) {
    __m256i b[NP];
    for (int p = 0; p < NP; ++p) {
      b[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          panel + 2 * (p * kpairs + kk) * kPairWidth));
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
__attribute__((target("avx2"))) void GemmBlockAvx2Rows(
    const Int8Block<int16_t>& b) {
  alignas(32) int32_t acc[kTileRows * kTileCols];
  const int64_t n = b.w->out;
  const int64_t kpairs = b.x_stride / 2;
  const int64_t num_panels = NumPanels(n);
  const int8_t* panels = LineBytes(*b.w->packed);
  int64_t p = 0;
  for (; p + 2 <= num_panels; p += 2) {
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelAvx2<MR, 2>(b.qx, b.x_stride,
                              panels + 2 * p * kpairs * kPairWidth, kpairs,
                              acc);
    DequantEpilogueAvx2(acc, MR, b.sx, b.w->scale + j0,
                        b.bias != nullptr ? b.bias + j0 : nullptr, b.y + j0,
                        n, std::min(kTileCols, n - j0));
  }
  if (p < num_panels) {
    const int64_t j0 = p * kPanelCols;
    Int8TileKernelAvx2<MR, 1>(b.qx, b.x_stride,
                              panels + 2 * p * kpairs * kPairWidth, kpairs,
                              acc);
    DequantEpilogueAvx2(acc, MR, b.sx, b.w->scale + j0,
                        b.bias != nullptr ? b.bias + j0 : nullptr, b.y + j0,
                        n, n - j0);
  }
}

void GemmBlockAvx2(const Int8Block<int16_t>& b) {
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

// --- AMX ---------------------------------------------------------------------
//
// TDPBSSD multiplies a 16-row × 64-byte int8 A tile by a 16-row × 64-byte
// B tile of k-quads and adds the exact int32 dot products into a 16 × 16
// C tile. A block of 16 activation rows runs against the weight blocks two
// at a time: tiles 0 and 1 accumulate C, tile 2 holds A, tiles 3 and 4 the
// two B tiles. Rows past the matrix in the last block hold whatever the
// scratch held; their sums are never read.

constexpr int64_t kAmxRows = 16;   // activation rows and k-quads per tile
constexpr int64_t kAmxCols = 16;   // output channels per weight block
constexpr int64_t kAmxDepth = 64;  // k per tile: 16 quads

int64_t AmxDepth(int64_t k) {
  return (k + kAmxDepth - 1) / kAmxDepth * kAmxDepth;
}
int64_t NumAmxBlocks(int64_t n) { return (n + kAmxCols - 1) / kAmxCols; }

// Palette 1: five 16-row × 64-byte tiles (DESIGN §14).
struct alignas(64) AmxTileConfig {
  uint8_t palette = 1;
  uint8_t start_row = 0;
  uint8_t reserved[14] = {};
  uint16_t colsb[16] = {};
  uint8_t rows[16] = {};
};

const AmxTileConfig& TileConfig() {
  static const AmxTileConfig config = [] {
    AmxTileConfig c;
    for (int t = 0; t < 5; ++t) {
      c.rows[t] = static_cast<uint8_t>(kAmxRows);
      c.colsb[t] = static_cast<uint16_t>(kAmxDepth);
    }
    return c;
  }();
  return config;
}

// Linux hands out AMX's 8 KiB tile-data state only on request, once per
// process (arch_prctl ARCH_REQ_XCOMP_PERM for XFEATURE_XTILEDATA); a tile
// instruction without it raises SIGILL. The request fails on kernels
// without AMX support, and when a thread's sigaltstack is too small for
// the larger signal frame; then there is no amx member and dispatch keeps
// AVX2. The quantizer and epilogue also need AVX-512F.
bool AmxUsable() {
  static const bool usable = [] {
#if defined(__linux__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool tile = (edx & (1u << 24)) != 0;
    const bool int8 = (edx & (1u << 25)) != 0;
    if (!tile || !int8 || __builtin_cpu_supports("avx512f") == 0) {
      return false;
    }
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtileData = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtileData) ==
           0;
#else
    return false;
#endif
  }();
  return usable;
}

__attribute__((target("avx512f"))) float QuantizeRowAvx512(const float* x,
                                                           int64_t k,
                                                           int8_t* q) {
  // Masked tails load zeros, which never raise the max; maxps keeps its
  // second operand on NaN, as in the AVX2 twin.
  __m512 vmax = _mm512_setzero_ps();
  for (int64_t i = 0; i < k; i += 16) {
    const __m512 a =
        _mm512_abs_ps(_mm512_maskz_loadu_ps(LaneMask16(k - i), x + i));
    vmax = _mm512_max_ps(a, vmax);
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, vmax);
  float max_abs = 0.0f;
  for (const float a : lanes) {
    if (a > max_abs) max_abs = a;
  }
  const float scale = RowScale(max_abs);
  const __m512 vinv = _mm512_set1_ps(1.0f / scale);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  for (int64_t i = 0; i < k; i += 16) {
    // Rounding, NaN and range behave as in the AVX2 twin's cvtps.
    const __mmask16 mask = LaneMask16(k - i);
    __m512i r = _mm512_cvtps_epi32(
        _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, x + i), vinv));
    r = _mm512_max_epi32(_mm512_min_epi32(r, hi), lo);
    _mm512_mask_cvtepi32_storeu_epi8(q + i, mask, r);
  }
  return scale;
}

// The exact int32 sums of one 16-row A block against weight blocks w0 and,
// when not null, w1, over `chunks` 64-deep k steps, stored as 16 × 16 rows
// to acc0 and acc1.
__attribute__((target("amx-tile,amx-int8"))) inline void Int8TileKernelAmx(
    const int8_t* a, int64_t a_stride, const int8_t* w0, const int8_t* w1,
    int64_t chunks, int32_t* acc0, int32_t* acc1) {
  constexpr int64_t kBlockStride = kAmxRows * kLineBytes;  // one B tile
  _tile_zero(0);
  if (w1 != nullptr) _tile_zero(1);
  for (int64_t c = 0; c < chunks; ++c) {
    _tile_loadd(2, a + c * kAmxDepth, a_stride);
    _tile_loadd(3, w0 + c * kBlockStride, kLineBytes);
    _tile_dpbssd(0, 2, 3);
    if (w1 != nullptr) {
      _tile_loadd(4, w1 + c * kBlockStride, kLineBytes);
      _tile_dpbssd(1, 2, 4);
    }
  }
  _tile_stored(0, acc0, kAmxCols * sizeof(int32_t));
  if (w1 != nullptr) _tile_stored(1, acc1, kAmxCols * sizeof(int32_t));
}

// 16 columns per row: one register of scales, one of bias.
__attribute__((target("avx512f"))) void DequantEpilogueAvx512(
    const int32_t* acc, int64_t rows, const float* sx, const float* sw,
    const float* bias, float* y, int64_t y_stride, int64_t cols) {
  const __mmask16 mask = LaneMask16(cols);
  const __m512 w = _mm512_maskz_loadu_ps(mask, sw);
  const __m512 b = bias != nullptr ? _mm512_maskz_loadu_ps(mask, bias)
                                   : _mm512_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    const __m512 scale = _mm512_mul_ps(_mm512_set1_ps(sx[r]), w);
    __m512 v = _mm512_mul_ps(
        scale, _mm512_cvtepi32_ps(_mm512_load_si512(acc + r * kAmxCols)));
    if (bias != nullptr) v = _mm512_add_ps(v, b);
    _mm512_mask_storeu_ps(y + r * y_stride, mask, v);
  }
}

__attribute__((target("amx-tile,amx-int8,avx512f"))) void GemmBlockAmx(
    const Int8Block<int8_t>& b) {
  alignas(64) int32_t acc[2][kAmxRows * kAmxCols];
  const int64_t n = b.w->out;
  const int64_t block_bytes = b.x_stride * kAmxCols;
  const int64_t num_blocks = NumAmxBlocks(n);
  const int8_t* blocks = LineBytes(*b.w->packed);
  for (int64_t p = 0; p < num_blocks; p += 2) {
    const int64_t pair = std::min<int64_t>(2, num_blocks - p);
    Int8TileKernelAmx(b.qx, b.x_stride, blocks + p * block_bytes,
                      pair == 2 ? blocks + (p + 1) * block_bytes : nullptr,
                      b.x_stride / kAmxDepth, acc[0], acc[1]);
    for (int64_t h = 0; h < pair; ++h) {
      const int64_t j0 = (p + h) * kAmxCols;
      DequantEpilogueAvx512(acc[h], b.rows, b.sx, b.w->scale + j0,
                            b.bias != nullptr ? b.bias + j0 : nullptr,
                            b.y + j0, n, std::min(kAmxCols, n - j0));
    }
  }
}

void PackAmxBlocks(const int8_t* q, int64_t out, int64_t in,
                   PackedInt8* packed) {
  const int64_t quads = AmxDepth(in) / 4;  // lines per block
  // Built once per weight, like the panels.
  packed->lines.assign(  // NOLINT(hot-path-alloc)
      static_cast<size_t>(NumAmxBlocks(out) * quads), Int8Line{});
  for (int64_t j = 0; j < out; ++j) {
    Int8Line* block = packed->lines.data() + (j / kAmxCols) * quads;
    const int64_t c = j % kAmxCols;
    const int8_t* row = q + j * in;
    for (int64_t l = 0; l < in; ++l) {
      block[l / 4].bytes[c * 4 + l % 4] = row[l];
    }
  }
  packed->layout = kAmxLayout;
  PanelsPackedCounter()->Increment();
}

#endif  // DODUO_X86_SIMD

// Per-thread activation scratch: quantized rows and their scales. Grows to
// its high-water mark once and is reused verbatim afterwards, so a
// warmed-up Int8Linear makes no heap allocation (DESIGN §9). Per thread
// because replicas call Int8Linear concurrently; the pool workers of one
// sharded call write disjoint rows of the calling thread's buffers.
struct Int8Scratch {
  std::vector<int16_t> qx16;  // the panel kernels' int16 rows
  std::vector<Int8Line> qx8;  // amx's int8 rows, each on a cache line
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

// What Int8LinearWith needs from a kernel: its activation type, rows per
// block, padded row length, scratch, quantizer, block GEMM and layout, and
// the hooks around one shard of blocks (AMX loads its tile config there
// and releases the tiles afterwards).
template <float (*Quantize)(const float*, int64_t, int16_t*),
          void (*Gemm)(const Int8Block<int16_t>&)>
struct PanelKernel {
  using Act = int16_t;
  static constexpr int64_t kBlockRows = kTileRows;
  static constexpr const char* kLayout = kPanelLayout;
  static int64_t Stride(int64_t k) { return 2 * KPairs(k); }
  static int16_t* Rows(int64_t size) {
    return GrowTo(&ThreadScratch().qx16, size);
  }
  static constexpr auto QuantizeRow = Quantize;
  static constexpr auto GemmBlock = Gemm;
  static void Enter() {}
  static void Leave() {}
};

#if defined(DODUO_X86_SIMD)
struct AmxKernel {
  using Act = int8_t;
  static constexpr int64_t kBlockRows = kAmxRows;
  static constexpr const char* kLayout = kAmxLayout;
  static int64_t Stride(int64_t k) { return AmxDepth(k); }
  static int8_t* Rows(int64_t size) {
    return reinterpret_cast<int8_t*>(
        GrowTo(&ThreadScratch().qx8, size / kLineBytes));
  }
  static constexpr auto QuantizeRow = &QuantizeRowAvx512;
  static constexpr auto GemmBlock = &GemmBlockAmx;
  __attribute__((target("amx-tile"))) static void Enter() {
    _tile_loadconfig(&TileConfig());
  }
  __attribute__((target("amx-tile"))) static void Leave() { _tile_release(); }
};
#endif

template <typename K>
void Int8LinearWith(const Tensor& x, const Int8WeightView& w,
                    const float* bias, Tensor* y) {
  using Act = typename K::Act;
  DODUO_CHECK_EQ(x.ndim(), 2);
  DODUO_CHECK(w.packed != nullptr && w.scale != nullptr);
  DODUO_CHECK(w.packed->layout == K::kLayout)
      << "int8 weight packed as "
      << (w.packed->layout != nullptr ? w.packed->layout : "nothing")
      << ", kernel reads " << K::kLayout;
  DODUO_CHECK_EQ(x.cols(), w.in);
  DODUO_CHECK_LE(w.in, kMaxInt8DotK)
      << "int32 accumulation would overflow: k · 127² > 2³¹ − 1";
  const int64_t m = x.rows();
  const int64_t k = w.in;
  const int64_t n = w.out;
  const int64_t x_stride = K::Stride(k);
  y->ResizeUninitialized({m, n});

  const int64_t num_blocks = (m + K::kBlockRows - 1) / K::kBlockRows;
  Act* qx = K::Rows(num_blocks * K::kBlockRows * x_stride);
  float* sx = GrowTo(&ThreadScratch().sx, m);
  float* py = y->data();
  auto blocks = [&](int64_t block_begin, int64_t block_end) {
    K::Enter();
    for (int64_t blk = block_begin; blk < block_end; ++blk) {
      const int64_t r0 = blk * K::kBlockRows;
      const int64_t rows = std::min(K::kBlockRows, m - r0);
      for (int64_t i = r0; i < r0 + rows; ++i) {
        Act* qrow = qx + i * x_stride;
        sx[i] = K::QuantizeRow(x.row(i), k, qrow);
        std::fill(qrow + k, qrow + x_stride, Act{0});  // zero-padded depth
      }
      K::GemmBlock({qx + r0 * x_stride, x_stride, sx + r0, rows, &w, bias,
                    py + r0 * n});
    }
    K::Leave();
  };
  if (ShouldParallelize(m, k, n)) {
    util::ComputePool()->ParallelFor(0, num_blocks, /*grain=*/1, blocks);
  } else {
    blocks(0, num_blocks);
  }
}

// Int8Kernel::quantize_row: a kernel's own quantizer, its integers
// widened to int32, so every member has one signature for the tests.
template <typename K>
float QuantizeRowWidened(const float* x, int64_t k, int32_t* q) {
  std::vector<typename K::Act> narrow(static_cast<size_t>(k));  // NOLINT(hot-path-alloc)
  const float scale = K::QuantizeRow(x, k, narrow.data());
  std::copy(narrow.begin(), narrow.end(), q);
  return scale;
}

using ScalarKernel = PanelKernel<&QuantizeRowScalar, &GemmBlockScalar>;

constexpr Int8Kernel kScalarKernel{"scalar",
                                   &QuantizeRowWidened<ScalarKernel>,
                                   &PackPanels,
                                   &Int8LinearWith<ScalarKernel>};

#if defined(DODUO_X86_SIMD)
using Avx2Kernel = PanelKernel<&QuantizeRowAvx2, &GemmBlockAvx2>;

constexpr Int8Kernel kAvx2Kernel{"avx2", &QuantizeRowWidened<Avx2Kernel>,
                                 &PackPanels, &Int8LinearWith<Avx2Kernel>};

constexpr Int8Kernel kAmxKernel{"amx", &QuantizeRowWidened<AmxKernel>,
                                &PackAmxBlocks, &Int8LinearWith<AmxKernel>};

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
#endif

// Runtime dispatch, same pattern as ops.cc: AMX when the CPU has it and
// the process was granted the tile state, else AVX2 when the CPU has it;
// DODUO_SIMD=0 forces the scalar reference, and then dispatch makes no
// AMX permission request (Int8Kernels() still makes it, to list the amx
// member for the tests and benches whatever DODUO_SIMD says).
// Cached per process, and published as the quant.int8_kernel info label.
const Int8Kernel& PickInt8Kernel() {
  static const Int8Kernel& kernel = []() -> const Int8Kernel& {
    const Int8Kernel* pick = &kScalarKernel;
#if defined(DODUO_X86_SIMD)
    if (SimdEnabled() && AmxUsable()) {
      pick = &kAmxKernel;
    } else if (SimdEnabled() && CpuHasAvx2()) {
      pick = &kAvx2Kernel;
    }
#endif
    util::SetInfo("quant.int8_kernel", pick->name);
    return *pick;
  }();
  return kernel;
}

void PublishQuantEnabled(bool enabled) {
  util::SetInfo("quant.enabled", enabled ? "on" : "off");
}

}  // namespace

bool QuantEnabled() {
  int v = g_quant_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = util::GetEnvInt("DODUO_QUANT", 0) != 0 ? 1 : 0;
    g_quant_enabled.store(v, std::memory_order_relaxed);
    PublishQuantEnabled(v != 0);
  }
  return v != 0;
}

void SetQuantEnabled(bool enabled) {
  g_quant_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
  PublishQuantEnabled(enabled);
}

const char* Int8KernelName() { return PickInt8Kernel().name; }

std::vector<Int8Kernel> Int8Kernels() {
  std::vector<Int8Kernel> kernels{kScalarKernel};
#if defined(DODUO_X86_SIMD)
  if (CpuHasAvx2()) kernels.push_back(kAvx2Kernel);
  if (AmxUsable()) kernels.push_back(kAmxKernel);
#endif
  return kernels;
}

void PackInt8Weight(const int8_t* q, int64_t out, int64_t in,
                    PackedInt8* packed) {
  PickInt8Kernel().pack(q, out, in, packed);
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
  PackInt8Weight(out->q.data(), out_channels, in, &out->packed);
}

void Int8Linear(const Tensor& x, const Int8WeightView& w, const float* bias,
                Tensor* y) {
  PickInt8Kernel().linear(x, w, bias, y);
}

}  // namespace doduo::nn
