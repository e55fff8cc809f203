#include "doduo/nn/embedding.h"

#include <algorithm>
#include <utility>

namespace doduo::nn {

Embedding::Embedding(std::string name, int64_t vocab_size, int64_t dim,
                     util::Rng* rng)
    : table_(name + ".table", {vocab_size, dim}) {
  if (rng != nullptr) table_.value.FillNormal(rng, 0.02f);
}

const Tensor& Embedding::Forward(const std::vector<int>& ids) {
  DODUO_CHECK(!ids.empty());
  return Forward(ids.data(), static_cast<int64_t>(ids.size()));
}

const Tensor& Embedding::Forward(const int* ids, int64_t count) {
  DODUO_CHECK(ids != nullptr && count > 0);
  // Id cache for Backward. Capacity is reused after warm-up, so the
  // steady-state forward performs no allocation.
  cached_ids_.assign(ids, ids + count);  // NOLINT(hot-path-alloc)
  const int64_t d = dim();
  output_.ResizeUninitialized({count, d});
  for (int64_t i = 0; i < count; ++i) {
    DODUO_DCHECK(ids[i] >= 0 && ids[i] < vocab_size());
    const float* src = std::as_const(table_.value).row(ids[i]);
    std::copy(src, src + d, output_.row(i));
  }
  return output_;
}

void Embedding::Backward(const Tensor& grad_out) {
  DODUO_CHECK(!cached_ids_.empty()) << "Backward before Forward";
  DODUO_CHECK_EQ(grad_out.rows(), static_cast<int64_t>(cached_ids_.size()));
  DODUO_CHECK_EQ(grad_out.cols(), dim());
  DODUO_CHECK(SameShape(table_.grad, table_.value))
      << "no gradient storage (an inference-only replica cannot train)";
  const int64_t d = dim();
  for (size_t i = 0; i < cached_ids_.size(); ++i) {
    const float* src = grad_out.row(static_cast<int64_t>(i));
    float* dst = table_.grad.row(cached_ids_[i]);
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

const float* Embedding::Row(int id) const {
  DODUO_CHECK(id >= 0 && id < vocab_size());
  return std::as_const(table_.value).row(id);
}

}  // namespace doduo::nn
