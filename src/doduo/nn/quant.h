#ifndef DODUO_NN_QUANT_H_
#define DODUO_NN_QUANT_H_

#include <cstdint>
#include <vector>

#include "doduo/nn/parameter.h"
#include "doduo/nn/tensor.h"

namespace doduo::nn {

// Int8 quantized inference path (DESIGN §14). Weights are quantized
// symmetrically per output channel (scale[j] = max|w[:, j]| / 127) into a
// transposed [out, in] int8 table, which the dispatched kernel packs once
// into its own GEMM layout (Int8Kernel::pack). Activations are quantized
// dynamically per row (scale[i] = max|x[i, :]| / 127), to int16 for the
// scalar and AVX2 panel kernels and to int8 for the AMX kernel. The GEMM
// accumulates in int32 — exactly, so the result is bit-identical across
// the scalar, AVX2 and AMX kernels and at any thread count — and a separate
// epilogue dequantizes and adds the bias in fp32, in this order:
//
//   y[i, j] = (sa[i] · sw[j]) · float(Σ_l qx[i, l] · qw[j, l])  (+ bias[j])
//
// The path is opt-in at runtime (DODUO_QUANT=1, default off) and changes
// numerics only within the quantization error bound; the Table 3/4 parity
// tests pin its F1 to the fp32 path. Like the fp32 kernels, a warmed-up
// Int8Linear makes no heap allocation: its activation scratch is per thread
// and grows to its high-water mark once (DESIGN §9).

/// Largest reduction length the int32 accumulator holds exactly:
/// k · 127² ≤ 2³¹ − 1. Int8Linear CHECK-fails above it.
inline constexpr int64_t kMaxInt8DotK = INT32_MAX / (127 * 127);

/// True when the int8 inference path is enabled. Initialized from
/// DODUO_QUANT (default off) on first use.
bool QuantEnabled();

/// Runtime override of the DODUO_QUANT switch (tests and tools).
void SetQuantEnabled(bool enabled);

/// Packs an [out, in] int8 table into the dispatched kernel's layout
/// (Int8Kernel::pack). Deterministic; built once per weight.
void PackInt8Weight(const int8_t* q, int64_t out, int64_t in,
                    PackedInt8* packed);

/// Owned int8 rendering of one [in, out] fp32 weight: the transposed table
/// (what a v2 int8 checkpoint stores), its scales, and the packed weight
/// the GEMM reads. Built by QuantizeWeight (Linear's lazy cache).
struct QuantizedWeight {
  std::vector<int8_t> q;     // [out * in]; row j = output channel j
  std::vector<float> scale;  // [out]
  PackedInt8 packed;         // PackInt8Weight(q, out, in)
  int64_t out = 0;
  int64_t in = 0;
};

/// Borrowed view over either storage flavor; what the kernels consume.
struct Int8WeightView {
  const PackedInt8* packed = nullptr;
  const float* scale = nullptr;
  int64_t out = 0;
  int64_t in = 0;
};

inline Int8WeightView View(const QuantizedWeight& w) {
  return {&w.packed, w.scale.data(), w.out, w.in};
}
inline Int8WeightView View(const PrequantizedWeight& w) {
  return {&w.packed, w.scale, w.out, w.in};
}

/// Quantizes a 2-D [in, out] fp32 weight per output channel into the
/// transposed int8 table and packs it for the dispatched kernel.
/// Deterministic (round-to-nearest-even).
void QuantizeWeight(const Tensor& w, QuantizedWeight* out);

/// Quantized linear layer: x [m, in] fp32 → y [m, out] fp32 through the
/// int8 GEMM and its dequant(+bias) epilogue, on the dispatched kernel.
/// `bias` ([out]) may be nullptr (the fused bias/GELU epilogue adds it
/// later). Shards output rows across the compute pool above the same volume
/// threshold as the fp32 kernels (64³, measured for fp32 and not re-measured
/// for the amx kernel, whose shards can cost more to hand off than to run). Requires in ≤ kMaxInt8DotK and a weight
/// packed by the dispatched kernel.
void Int8Linear(const Tensor& x, const Int8WeightView& w, const float* bias,
                Tensor* y);

/// One member of the int8 kernel family. Every member computes the same
/// integers and the same epilogue, so they are interchangeable bit for bit;
/// each reads only weights packed by its own `pack`.
struct Int8Kernel {
  const char* name;
  /// Quantizes one activation row of length k to values in [-127, 127]
  /// (round-to-nearest-even, clamped) and returns the row scale, through
  /// this kernel's own quantizer. The GEMM keeps the panel kernels'
  /// activations (scalar, avx2) as int16 and amx's as int8; this entry
  /// widens them to int32 so the tests compare every member alike.
  float (*quantize_row)(const float* x, int64_t k, int32_t* q);
  /// Packs an [out, in] int8 table into this kernel's weight layout.
  void (*pack)(const int8_t* q, int64_t out, int64_t in, PackedInt8* packed);
  /// Int8Linear through this kernel.
  void (*linear)(const Tensor& x, const Int8WeightView& w, const float* bias,
                 Tensor* y);
};

/// Every int8 kernel this binary can run on this CPU: "scalar" (the
/// reference, and the DODUO_SIMD=0 / non-x86 fallback) always, then "avx2"
/// when the CPU has it, then "amx" when the CPU has AMX-TILE, AMX-INT8 and
/// AVX-512F and the kernel granted this process the AMX tile state — for
/// the cross-kernel bit-equality tests and the per-kernel benches. The
/// first call makes the process's one AMX permission request, whatever
/// DODUO_SIMD says.
std::vector<Int8Kernel> Int8Kernels();

/// Name of the kernel Int8Linear dispatches to in this process: the last
/// member of Int8Kernels(), or "scalar" under DODUO_SIMD=0 — for startup
/// logs, STATS and bench output.
const char* Int8KernelName();

}  // namespace doduo::nn

#endif  // DODUO_NN_QUANT_H_
