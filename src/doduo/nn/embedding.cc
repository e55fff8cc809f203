#include "doduo/nn/embedding.h"

#include <algorithm>
#include <utility>

namespace doduo::nn {

Embedding::Embedding(std::string name, int64_t vocab_size, int64_t dim,
                     util::Rng* rng)
    : table_(name + ".table", {vocab_size, dim}) {
  if (rng != nullptr) table_.value.FillNormal(rng, 0.02f);
}

const Tensor& Embedding::Forward(std::span<const int> ids) {
  DODUO_CHECK(!ids.empty());
  ids_ = ids;
  const int64_t count = static_cast<int64_t>(ids.size());
  const int64_t d = dim();
  output_.ResizeUninitialized({count, d});
  for (int64_t i = 0; i < count; ++i) {
    const int id = ids[static_cast<size_t>(i)];
    DODUO_DCHECK(id >= 0 && id < vocab_size());
    const float* src = std::as_const(table_.value).row(id);
    std::copy(src, src + d, output_.row(i));
  }
  return output_;
}

void Embedding::Backward(const Tensor& grad_out) {
  DODUO_CHECK(!ids_.empty()) << "Backward before Forward";
  DODUO_CHECK_EQ(grad_out.rows(), static_cast<int64_t>(ids_.size()));
  DODUO_CHECK_EQ(grad_out.cols(), dim());
  DODUO_CHECK(SameShape(table_.grad, table_.value))
      << "no gradient storage (an inference-only replica cannot train)";
  const int64_t d = dim();
  for (size_t i = 0; i < ids_.size(); ++i) {
    const float* src = grad_out.row(static_cast<int64_t>(i));
    float* dst = table_.grad.row(ids_[i]);
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

const float* Embedding::Row(int id) const {
  DODUO_CHECK(id >= 0 && id < vocab_size());
  return std::as_const(table_.value).row(id);
}

}  // namespace doduo::nn
