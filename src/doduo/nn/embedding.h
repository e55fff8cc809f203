#ifndef DODUO_NN_EMBEDDING_H_
#define DODUO_NN_EMBEDDING_H_

#include <span>
#include <string>

#include "doduo/nn/parameter.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/rng.h"

namespace doduo::nn {

/// Lookup-table embedding: ids → rows of a trainable [vocab, dim] matrix.
class Embedding {
 public:
  /// Table initialized Normal(0, 0.02), matching BERT's initializer. Pass
  /// rng == nullptr to skip initialization (the table stays zero), as for
  /// Linear.
  Embedding(std::string name, int64_t vocab_size, int64_t dim,
            util::Rng* rng);

  /// ids (each in [0, vocab), non-empty) → [ids.size(), dim]. The layer
  /// keeps the span for Backward, so the ids must outlive it.
  const Tensor& Forward(std::span<const int> ids);

  /// Accumulates grad_out [len, dim] into the rows selected by the ids of
  /// the last Forward call.
  void Backward(const Tensor& grad_out);

  /// Read-only row view for id, without caching (inference helpers).
  const float* Row(int id) const;

  ParameterList Parameters() { return {&table_}; }

  int64_t vocab_size() const { return table_.value.rows(); }
  int64_t dim() const { return table_.value.cols(); }

  Parameter& table() { return table_; }

 private:
  Parameter table_;  // [vocab, dim]
  std::span<const int> ids_;  // the last Forward's ids, borrowed
  Tensor output_;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_EMBEDDING_H_
