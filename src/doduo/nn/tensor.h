#ifndef DODUO_NN_TENSOR_H_
#define DODUO_NN_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "doduo/util/check.h"
#include "doduo/util/rng.h"

namespace doduo::nn {

/// Dense row-major float32 tensor. This is the only numeric container used
/// by the neural-network stack; it supports 1-D through 3-D shapes, which is
/// all the Transformer needs (sequences are processed one at a time, so no
/// batch dimension is required).
///
/// Tensor is a value type: copying copies the buffer. Most hot paths pass
/// `const Tensor&` and write into preallocated outputs via the free
/// functions in ops.h.
///
/// A tensor can alternatively *borrow* read-only storage it does not own
/// (Borrowed): the data pointer aliases an external buffer — an mmap-ed v2
/// checkpoint section, or another replica's weight snapshot — kept alive by
/// a type-erased shared_ptr. Copying a borrowed tensor shares the borrow
/// instead of duplicating the floats, which is what lets N serving replicas
/// reference one physical weight copy (DESIGN §14). Borrowed tensors are
/// immutable: every mutating accessor (non-const data()/at()/row(), the
/// Fill family, ResizeUninitialized) CHECK-fails on them; callers that need
/// a writable copy take MaterializeOwned() first.
class Tensor {
 public:
  /// An empty tensor with no elements and no shape.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. All extents must be
  /// positive.
  explicit Tensor(std::vector<int64_t> shape);

  /// Convenience 1-D/2-D/3-D constructors.
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);

  /// Builds a tensor that takes ownership of `data`; data.size() must match
  /// the shape volume.
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> data);

  /// Builds a read-only tensor over external storage: `data` must stay
  /// valid (and unmodified) for as long as `keepalive` is held. No floats
  /// are copied — the tensor aliases the caller's buffer.
  static Tensor Borrowed(std::vector<int64_t> shape, const float* data,
                         std::shared_ptr<const void> keepalive);

  /// True when this tensor aliases external read-only storage.
  bool borrowed() const { return view_ != nullptr; }

  /// A deep, owned (writable) copy of this tensor's contents.
  Tensor MaterializeOwned() const;

  /// Fills with Uniform(-limit, limit).
  void FillUniform(util::Rng* rng, float limit);

  /// Fills with Normal(0, stddev).
  void FillNormal(util::Rng* rng, float stddev);

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// Number of dimensions (0 for an empty tensor).
  int ndim() const { return static_cast<int>(shape_.size()); }

  /// Extent of dimension `i`.
  int64_t dim(int i) const {
    DODUO_DCHECK(i >= 0 && i < ndim());
    return shape_[static_cast<size_t>(i)];
  }

  const std::vector<int64_t>& shape() const { return shape_; }

  /// Total number of elements.
  int64_t size() const {
    return view_ != nullptr ? view_size_ : static_cast<int64_t>(data_.size());
  }

  bool empty() const { return size() == 0; }

  /// Rows/cols accessors for 2-D tensors.
  int64_t rows() const {
    DODUO_DCHECK_EQ(ndim(), 2);
    return shape_[0];
  }
  int64_t cols() const {
    DODUO_DCHECK_EQ(ndim(), 2);
    return shape_[1];
  }

  float* data() {
    DODUO_CHECK(view_ == nullptr)
        << "mutable access to a borrowed tensor (MaterializeOwned first)";
    return data_.data();
  }
  const float* data() const {
    return view_ != nullptr ? view_ : data_.data();
  }

  /// Element accessors with debug bounds checks.
  float& at(int64_t i) {
    DODUO_DCHECK_EQ(ndim(), 1);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    return data()[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    DODUO_DCHECK_EQ(ndim(), 1);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    return data()[static_cast<size_t>(i)];
  }

  float& at(int64_t i, int64_t j) {
    DODUO_DCHECK_EQ(ndim(), 2);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    DODUO_DCHECK(j >= 0 && j < shape_[1]);
    return data()[static_cast<size_t>(i * shape_[1] + j)];
  }
  float at(int64_t i, int64_t j) const {
    DODUO_DCHECK_EQ(ndim(), 2);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    DODUO_DCHECK(j >= 0 && j < shape_[1]);
    return data()[static_cast<size_t>(i * shape_[1] + j)];
  }

  float& at(int64_t i, int64_t j, int64_t k) {
    DODUO_DCHECK_EQ(ndim(), 3);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    DODUO_DCHECK(j >= 0 && j < shape_[1]);
    DODUO_DCHECK(k >= 0 && k < shape_[2]);
    return data()[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    DODUO_DCHECK_EQ(ndim(), 3);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    DODUO_DCHECK(j >= 0 && j < shape_[1]);
    DODUO_DCHECK(k >= 0 && k < shape_[2]);
    return data()[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }

  /// Pointer to the start of 2-D row `i`.
  float* row(int64_t i) {
    DODUO_DCHECK_EQ(ndim(), 2);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    return data() + static_cast<size_t>(i * shape_[1]);
  }
  const float* row(int64_t i) const {
    DODUO_DCHECK_EQ(ndim(), 2);
    DODUO_DCHECK(i >= 0 && i < shape_[0]);
    return data() + static_cast<size_t>(i * shape_[1]);
  }

  /// Reinterprets the buffer with a new shape of the same volume.
  void Reshape(std::vector<int64_t> shape);

  /// Resizes to `shape`, reallocating only when the volume grows past the
  /// buffer or the rank past the shape's capacity; contents are unspecified
  /// afterwards (call Zero() if needed). A steady-state resize to a shape
  /// of the same rank never touches the heap.
  void ResizeUninitialized(std::initializer_list<int64_t> shape);
  void ResizeUninitialized(const std::vector<int64_t>& shape);

  /// Returns a copy of row range [begin, end) of a 2-D tensor.
  Tensor SliceRows(int64_t begin, int64_t end) const;

  /// Sum of all elements (double accumulator).
  double Sum() const;

  /// Square root of the sum of squares.
  double L2Norm() const;

  /// "f32[2, 3]"-style debug string.
  std::string ShapeString() const;

 private:
  void ResizeTo(const int64_t* dims, size_t rank);

  std::vector<int64_t> shape_;
  std::vector<float> data_;  // owned storage; empty when borrowing

  // Borrowed storage: `view_` aliases `view_size_` floats owned elsewhere,
  // pinned by `owner_`. Copying a Tensor copies these three members, so
  // copies of a borrowed tensor share the underlying buffer.
  const float* view_ = nullptr;
  int64_t view_size_ = 0;
  std::shared_ptr<const void> owner_;
};

/// Volume of a shape. Dies on non-positive extents.
int64_t ShapeVolume(const std::vector<int64_t>& shape);

/// True if the two tensors have identical shapes.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace doduo::nn

#endif  // DODUO_NN_TENSOR_H_
