#include "doduo/core/model.h"

#include <algorithm>
#include <span>

#include "doduo/nn/ops.h"
#include "doduo/util/metrics.h"

namespace doduo::core {

namespace {

// Per-stage latency metrics (DESIGN §10); pointers resolved once.
struct ModelMetrics {
  util::Histogram* encoder_forward_us =
      util::GetHistogram("model.encoder_forward_us");
  util::Histogram* heads_us = util::GetHistogram("model.heads_us");
};

ModelMetrics& Metrics() {
  static ModelMetrics metrics;
  return metrics;
}

}  // namespace

MlpHead::MlpHead(const std::string& name, int64_t in_dim, int64_t hidden_dim,
                 int64_t out_dim, util::Rng* rng)
    : dense_(name + ".dense", in_dim, hidden_dim, rng),
      output_(name + ".out", hidden_dim, out_dim, rng) {}

const nn::Tensor& MlpHead::Forward(const nn::Tensor& x) {
  return output_.Forward(activation_.Forward(dense_.Forward(x)));
}

const nn::Tensor& MlpHead::Backward(const nn::Tensor& grad_out) {
  return dense_.Backward(activation_.Backward(output_.Backward(grad_out)));
}

nn::ParameterList MlpHead::Parameters() {
  nn::ParameterList params;
  nn::AppendParameters(dense_.Parameters(), &params);
  nn::AppendParameters(output_.Parameters(), &params);
  return params;
}

DoduoModel::DoduoModel(const DoduoConfig& config, util::Rng* rng)
    : config_(config),
      encoder_("doduo.encoder", config.encoder, rng),
      type_head_("doduo.type_head", config.encoder.hidden_dim,
                 config.encoder.hidden_dim, config.num_types, rng) {
  config_.Validate();
  if (config.num_relations > 0) {
    relation_head_ = std::make_unique<MlpHead>(
        "doduo.rel_head", 2 * config.encoder.hidden_dim,
        config.encoder.hidden_dim, config.num_relations, rng);
  }
}

const nn::Tensor& DoduoModel::EncodeColumns(
    const table::SerializedTable& input) {
  DODUO_CHECK(!input.cls_positions.empty());
  cls_positions_ = input.cls_positions;
  sequence_length_ = static_cast<int64_t>(input.token_ids.size());
  // The heads read only the [CLS] rows: out of training, the last block
  // computes just those (a kept-rows forward). Training keeps every row,
  // because Backward needs them.
  const bool training = encoder_.training();
  const std::span<const int64_t> kept_rows =
      training ? std::span<const int64_t>() : cls_positions_;
  util::ScopedTimer timer(Metrics().encoder_forward_us,
                          "model.encoder_forward");
  const nn::Tensor* hidden = nullptr;
  if (mask_builder_) {
    const transformer::AttentionMask mask = mask_builder_(input);
    hidden = &encoder_.Forward(input.token_ids, &mask, kept_rows);
  } else {
    hidden = &encoder_.Forward(input.token_ids, nullptr, kept_rows);
  }
  if (!training) return *hidden;
  nn::GatherRows(nn::FullView(*hidden), cls_positions_, &cls_embeddings_);
  return cls_embeddings_;
}

const nn::Tensor& DoduoModel::ForwardTypes(
    const table::SerializedTable& input) {
  const nn::Tensor& cls = EncodeColumns(input);
  util::ScopedTimer timer(Metrics().heads_us, "model.type_head");
  return type_head_.Forward(cls);
}

const nn::Tensor& DoduoModel::ForwardRelations(
    const table::SerializedTable& input,
    const std::vector<std::pair<int, int>>& pairs) {
  DODUO_CHECK(relation_head_ != nullptr) << "model has no relation head";
  DODUO_CHECK(!pairs.empty());
  const nn::Tensor& cls = EncodeColumns(input);
  pairs_ = pairs;
  const int64_t d = cls.cols();
  pair_embeddings_.ResizeUninitialized(
      {static_cast<int64_t>(pairs.size()), 2 * d});
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto [a, b] = pairs[p];
    DODUO_CHECK(a >= 0 && a < cls.rows());
    DODUO_CHECK(b >= 0 && b < cls.rows());
    float* dst = pair_embeddings_.row(static_cast<int64_t>(p));
    const float* src_a = cls.row(a);
    const float* src_b = cls.row(b);
    std::copy(src_a, src_a + d, dst);
    std::copy(src_b, src_b + d, dst + d);
  }
  util::ScopedTimer timer(Metrics().heads_us, "model.relation_head");
  return relation_head_->Forward(pair_embeddings_);
}

void DoduoModel::BackwardTypes(const nn::Tensor& grad_logits) {
  const nn::Tensor& grad_cls = type_head_.Backward(grad_logits);
  const int64_t d = grad_cls.cols();
  grad_hidden_.ResizeUninitialized({sequence_length_, d});
  grad_hidden_.Zero();
  for (size_t i = 0; i < cls_positions_.size(); ++i) {
    const float* src = grad_cls.row(static_cast<int64_t>(i));
    float* dst = grad_hidden_.row(cls_positions_[i]);
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  encoder_.Backward(grad_hidden_);
}

void DoduoModel::BackwardRelations(const nn::Tensor& grad_logits) {
  DODUO_CHECK(relation_head_ != nullptr);
  const nn::Tensor& grad_pairs = relation_head_->Backward(grad_logits);
  const int64_t d = grad_pairs.cols() / 2;
  grad_hidden_.ResizeUninitialized({sequence_length_, d});
  grad_hidden_.Zero();
  // A column (notably the key column) can participate in several pairs;
  // gradients accumulate.
  for (size_t p = 0; p < pairs_.size(); ++p) {
    const auto [a, b] = pairs_[p];
    const float* src = grad_pairs.row(static_cast<int64_t>(p));
    float* dst_a = grad_hidden_.row(cls_positions_[static_cast<size_t>(a)]);
    float* dst_b = grad_hidden_.row(cls_positions_[static_cast<size_t>(b)]);
    for (int64_t j = 0; j < d; ++j) {
      dst_a[j] += src[j];
      dst_b[j] += src[d + j];
    }
  }
  encoder_.Backward(grad_hidden_);
}

nn::Tensor DoduoModel::ColumnEmbeddings(const table::SerializedTable& input) {
  DODUO_CHECK(!encoder_.training())
      << "ColumnEmbeddings runs in eval mode only (set_training(false))";
  return EncodeColumns(input);
}

nn::Tensor DoduoModel::ColumnAttention(const table::SerializedTable& input) {
  DODUO_CHECK(!encoder_.training())
      << "ColumnAttention runs in eval mode only (set_training(false))";
  EncodeColumns(input);
  // The kept-rows forward leaves the last layer's probs as [n, seq]: row i
  // is column i's [CLS] query.
  const int last_layer = encoder_.num_layers() - 1;
  const std::vector<nn::Tensor>& head_probs =
      encoder_.attention_probs(last_layer);
  DODUO_CHECK(!head_probs.empty());
  const int64_t n = static_cast<int64_t>(cls_positions_.size());
  nn::Tensor attention({n, n});
  for (const nn::Tensor& probs : head_probs) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        attention.at(i, j) +=
            probs.at(i, cls_positions_[static_cast<size_t>(j)]);
      }
    }
  }
  nn::Scale(&attention, 1.0f / static_cast<float>(head_probs.size()));
  return attention;
}

nn::ParameterList DoduoModel::Parameters() {
  nn::ParameterList params = encoder_.Parameters();
  nn::AppendParameters(type_head_.Parameters(), &params);
  if (relation_head_ != nullptr) {
    nn::AppendParameters(relation_head_->Parameters(), &params);
  }
  return params;
}

std::vector<nn::Tensor> DoduoModel::SnapshotWeights() {
  std::vector<nn::Tensor> snapshot;
  for (nn::Parameter* p : Parameters()) snapshot.push_back(p->value);
  return snapshot;
}

void DoduoModel::RestoreWeights(const std::vector<nn::Tensor>& snapshot) {
  nn::ParameterList params = Parameters();
  DODUO_CHECK_EQ(snapshot.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    DODUO_CHECK(nn::SameShape(params[i]->value, snapshot[i]));
    params[i]->value = snapshot[i];
    // A replica that adopted a snapshot dropped its gradients; owning its
    // weights again makes it trainable again.
    if (params[i]->grad.empty()) {
      params[i]->grad = nn::Tensor(snapshot[i].shape());
    }
    params[i]->BumpRevision();
  }
}

void DoduoModel::AdoptWeights(
    std::shared_ptr<const std::vector<nn::Tensor>> snapshot) {
  DODUO_CHECK(snapshot != nullptr);
  nn::ParameterList params = Parameters();
  DODUO_CHECK_EQ(snapshot->size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Tensor& src = (*snapshot)[i];
    DODUO_CHECK(nn::SameShape(params[i]->value, src));
    if (src.borrowed()) {
      // The snapshot entry already aliases shared storage (an mmap-ed v2
      // checkpoint); copying the tensor shares that borrow.
      params[i]->value = src;
    } else {
      // Borrow the snapshot's own buffer; the aliasing shared_ptr pins the
      // whole snapshot vector for as long as any adopter lives.
      params[i]->value = nn::Tensor::Borrowed(
          src.shape(), src.data(),
          std::shared_ptr<const void>(snapshot, snapshot.get()));
    }
    // Read-only weights cannot be stepped, so the gradient buffers are
    // dead weight: a kept replica costs its forward workspaces, not also a
    // model-sized gradient copy.
    params[i]->grad = nn::Tensor();
    params[i]->BumpRevision();
  }
}

}  // namespace doduo::core
