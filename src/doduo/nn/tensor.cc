#include "doduo/nn/tensor.h"

#include <atomic>
#include <cmath>
#include <sstream>

namespace doduo::nn {

namespace {
std::atomic<uint64_t> g_tensor_allocs{0};
}  // namespace

uint64_t TensorAllocCount() {
  return g_tensor_allocs.load(std::memory_order_relaxed);
}

void ResetTensorAllocCount() {
  g_tensor_allocs.store(0, std::memory_order_relaxed);
}

#ifdef DODUO_COUNT_ALLOCS
namespace internal {
void CountOneTensorAlloc() {
  g_tensor_allocs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal
#endif

int64_t ShapeVolume(const std::vector<int64_t>& shape) {
  int64_t volume = 1;
  for (int64_t extent : shape) {
    DODUO_CHECK_GT(extent, 0) << "tensor extents must be positive";
    volume *= extent;
  }
  return volume;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(ShapeVolume(shape_)), 0.0f);
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> data) {
  Tensor t;
  DODUO_CHECK_EQ(ShapeVolume(shape), static_cast<int64_t>(data.size()));
  t.shape_ = std::move(shape);
#ifdef DODUO_COUNT_ALLOCS
  t.data_.assign(data.begin(), data.end());
#else
  t.data_ = std::move(data);
#endif
  return t;
}

Tensor Tensor::Borrowed(std::vector<int64_t> shape, const float* data,
                        std::shared_ptr<const void> keepalive) {
  DODUO_CHECK(data != nullptr);
  Tensor t;
  t.view_size_ = ShapeVolume(shape);
  t.shape_ = std::move(shape);
  t.view_ = data;
  t.owner_ = std::move(keepalive);
  return t;
}

Tensor Tensor::MaterializeOwned() const {
  Tensor t;
  t.shape_ = shape_;
  t.data_.assign(data(), data() + static_cast<size_t>(size()));
  return t;
}

void Tensor::FillUniform(util::Rng* rng, float limit) {
  DODUO_CHECK(!borrowed()) << "FillUniform on a borrowed tensor";
  for (float& v : data_) v = rng->UniformFloat(-limit, limit);
}

void Tensor::FillNormal(util::Rng* rng, float stddev) {
  DODUO_CHECK(!borrowed()) << "FillNormal on a borrowed tensor";
  for (float& v : data_) v = static_cast<float>(rng->Normal(0.0, stddev));
}

void Tensor::Fill(float value) {
  DODUO_CHECK(!borrowed()) << "Fill on a borrowed tensor";
  for (float& v : data_) v = value;
}

void Tensor::Reshape(std::vector<int64_t> shape) {
  DODUO_CHECK_EQ(ShapeVolume(shape), size());
  shape_ = std::move(shape);
}

void Tensor::ResizeUninitialized(std::initializer_list<int64_t> shape) {
  ResizeTo(shape.begin(), shape.size());
}

void Tensor::ResizeUninitialized(const std::vector<int64_t>& shape) {
  ResizeTo(shape.data(), shape.size());
}

// Copies the extents into shape_ in place (assign reuses its capacity), so
// no shape vector is built per call.
void Tensor::ResizeTo(const int64_t* dims, size_t rank) {
  DODUO_CHECK(!borrowed()) << "ResizeUninitialized on a borrowed tensor";
  int64_t volume = 1;
  for (size_t i = 0; i < rank; ++i) {
    DODUO_CHECK_GT(dims[i], 0) << "tensor extents must be positive";
    volume *= dims[i];
  }
  if (dims != shape_.data()) shape_.assign(dims, dims + rank);
  data_.resize(static_cast<size_t>(volume));
}

Tensor Tensor::SliceRows(int64_t begin, int64_t end) const {
  DODUO_CHECK_EQ(ndim(), 2);
  DODUO_CHECK(begin >= 0 && begin <= end && end <= rows());
  Tensor out({end - begin > 0 ? end - begin : 1, cols()});
  if (end == begin) {
    // Degenerate empty slice is not representable; callers must not ask.
    DODUO_CHECK(false) << "empty row slice";
  }
  const size_t bytes = static_cast<size_t>((end - begin) * cols());
  std::copy(row(begin), row(begin) + bytes, out.data());
  return out;
}

double Tensor::Sum() const {
  double total = 0.0;
  const float* p = data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) total += static_cast<double>(p[i]);
  return total;
}

double Tensor::L2Norm() const {
  double total = 0.0;
  const float* p = data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return std::sqrt(total);
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "f32[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

}  // namespace doduo::nn
