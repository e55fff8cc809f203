#ifndef DODUO_NN_WORKSPACE_H_
#define DODUO_NN_WORKSPACE_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <vector>

#include "doduo/nn/tensor.h"

namespace doduo::nn {

/// Per-layer scratch-tensor arena. A layer asks for scratch by stable slot
/// id; each slot's buffer grows to its high-water mark on first use and is
/// reused verbatim afterwards, so steady-state Forward/Backward performs
/// zero heap allocations (asserted by the counting-operator-new tests; see
/// DESIGN.md §9). Slots live in a deque, so references stay valid while new
/// slots are added.
///
/// Ownership: every layer that needs transient buffers (attention heads,
/// FFN activations, gradient scratch) owns one Workspace. Scratch handed out
/// by Get() is valid until the same slot is requested again, which gives
/// Forward→Backward lifetimes for free: forward caches and backward scratch
/// use distinct slots.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Scratch tensor for `slot`, resized (uninitialized) to `shape`. Slot ids
  /// should be small consecutive integers (an enum per layer). The braced
  /// form (`Get(slot, {s, d})`) builds no shape vector.
  Tensor& Get(size_t slot, std::initializer_list<int64_t> shape) {
    Tensor& t = Slot(slot);
    t.ResizeUninitialized(shape);
    return t;
  }
  Tensor& Get(size_t slot, const std::vector<int64_t>& shape) {
    Tensor& t = Slot(slot);
    t.ResizeUninitialized(shape);
    return t;
  }

  /// Total floats currently held across all slots (capacity diagnostics for
  /// the bench memory report).
  int64_t TotalFloats() const {
    int64_t total = 0;
    for (const Tensor& t : slots_) total += t.size();
    return total;
  }

 private:
  Tensor& Slot(size_t slot) {
    while (slots_.size() <= slot) slots_.emplace_back();
    return slots_[slot];
  }

  std::deque<Tensor> slots_;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_WORKSPACE_H_
