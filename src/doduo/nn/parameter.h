#ifndef DODUO_NN_PARAMETER_H_
#define DODUO_NN_PARAMETER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "doduo/nn/tensor.h"

namespace doduo::nn {

/// An int8 rendering of a 2-D [in, out] weight, precomputed at
/// checkpoint-convert or load time (DESIGN §14): one fp32 scale per output
/// channel (symmetric quantization: w[:, j] ≈ scale[j] · q[j, :]) and the
/// int8 GEMM's weight panels, packed once at load from the checkpoint's
/// transposed [out, in] table by nn::PackInt8Panels (the layout is private
/// to nn/quant). `scale` may alias an mmap-ed checkpoint section;
/// `keepalive` pins whatever owns it. Instances are immutable once built
/// and shared across replicas via shared_ptr, so every replica reads one
/// set of panels.
struct PrequantizedWeight {
  const float* scale = nullptr;  // [out]
  std::vector<int16_t> panels;   // PackInt8Panels(q, out, in)
  int64_t out = 0;
  int64_t in = 0;
  std::shared_ptr<const void> keepalive;
};

/// A trainable tensor with its gradient accumulator. Layers own their
/// Parameters; optimizers work on a flat list of pointers collected via
/// ParameterList and keep their own moment state, so several optimizers
/// (e.g. one per task, as in the paper's Algorithm 1) can drive the same
/// parameters.
///
/// `revision` counts value overwrites: every writer that replaces or steps
/// the weights (checkpoint load, optimizer step, snapshot restore) bumps it,
/// and derived caches — the int8 quantization of the weight above all —
/// record the revision they were built at and rebuild on mismatch. The
/// counter is monotonically increasing and never consulted for anything but
/// equality, so a bump is always safe.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  uint64_t revision = 0;

  /// Optional load-time int8 rendering of `value`; valid only while
  /// `prequant_revision == revision` (any later overwrite of the weight
  /// silently orphans it, and consumers fall back to re-quantizing).
  std::shared_ptr<const PrequantizedWeight> prequant;
  uint64_t prequant_revision = 0;

  Parameter() = default;
  Parameter(std::string param_name, std::vector<int64_t> shape)
      : name(std::move(param_name)), value(shape), grad(std::move(shape)) {}

  /// Records that `value` was overwritten, invalidating derived caches.
  void BumpRevision() { ++revision; }

  /// Attaches a precomputed int8 weight for the value at its current
  /// revision.
  void AttachPrequant(std::shared_ptr<const PrequantizedWeight> pq) {
    prequant = std::move(pq);
    prequant_revision = revision;
  }

  /// Zeroes the gradient accumulator.
  void ZeroGrad() { grad.Zero(); }
};

/// Flat, ordered collection of parameter pointers. Layers append their
/// parameters; the order is the (de)serialization order, so it must be
/// deterministic for a given model configuration.
using ParameterList = std::vector<Parameter*>;

/// Appends `params` of one layer to `out`.
inline void AppendParameters(const ParameterList& params, ParameterList* out) {
  out->insert(out->end(), params.begin(), params.end());
}

/// Total number of scalar weights across the list.
int64_t ParameterCount(const ParameterList& params);

/// Zeroes every gradient in the list.
void ZeroAllGrads(const ParameterList& params);

/// Global L2 norm of all gradients (for grad-clipping diagnostics).
double GradientNorm(const ParameterList& params);

/// Scales all gradients by `clip_norm / norm` when norm > clip_norm.
/// Returns the pre-clip norm.
double ClipGradientNorm(const ParameterList& params, double clip_norm);

}  // namespace doduo::nn

#endif  // DODUO_NN_PARAMETER_H_
