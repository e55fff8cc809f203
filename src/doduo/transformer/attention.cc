#include "doduo/transformer/attention.h"

#include <cmath>

#include "doduo/nn/ops.h"

namespace doduo::transformer {

namespace {

// Builds the packed [d, 3d] QKV projection with weights drawn in the same
// order as the three separate [d, d] projections it replaces: d² Xavier
// draws (fan in = out = d) into the Q column block row-major, then K, then
// V. A fixed seed therefore yields weights — and downstream RNG state —
// bit-identical to the pre-packing implementation.
nn::Linear MakePackedQkvProjection(const std::string& name, int64_t d,
                                   util::Rng* rng) {
  nn::Linear packed(name, d, 3 * d, nullptr);
  if (rng == nullptr) return packed;
  const float limit = std::sqrt(6.0f / static_cast<float>(2 * d));
  nn::Tensor& w = packed.weight().value;
  for (int part = 0; part < 3; ++part) {
    const int64_t col0 = static_cast<int64_t>(part) * d;
    for (int64_t i = 0; i < d; ++i) {
      float* row = w.row(i) + col0;
      for (int64_t j = 0; j < d; ++j) {
        row[j] = rng->UniformFloat(-limit, limit);
      }
    }
  }
  return packed;
}

// Workspace slot ids. Forward and backward scratch use disjoint slots so a
// Forward's leftovers never alias a Backward buffer mid-iteration.
enum WsSlot : size_t {
  kKeysT = 0,      // forward: packed Kᵀ of one head, sized by the kernel
  kKeptQueries,    // forward, kept rows: their Q band [n, d]
  kKeptMask,       // forward, kept rows: their mask rows [n, s]
  kGradProbs,      // backward [s, s]
  kGradScores,     // backward [s, s]
  kGradInputPart,  // backward [s, d]
};

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(
    const std::string& name, const TransformerConfig& config, util::Rng* rng)
    : num_heads_(config.num_heads),
      head_dim_(config.head_dim()),
      wqkv_(MakePackedQkvProjection(name + ".wqkv", config.hidden_dim, rng)),
      wo_(name + ".wo", config.hidden_dim, config.hidden_dim, rng) {
  probs_.resize(static_cast<size_t>(num_heads_));
}

const nn::Tensor& MultiHeadSelfAttention::Forward(
    const nn::Tensor& x, const AttentionMask* mask,
    std::span<const int64_t> kept_rows) {
  DODUO_CHECK_EQ(x.ndim(), 2);
  const int64_t s = x.rows();
  if (mask != nullptr) {
    DODUO_CHECK(mask->ndim() == 2 && mask->rows() == s && mask->cols() == s)
        << "attention mask must be [seq, seq]";
  }
  // One GEMM projects Q, K and V: qkv [s, 3d] with head h of Q in columns
  // [h·hd, (h+1)·hd), K offset by d, V by 2d.
  const nn::Tensor& qkv = wqkv_.Forward(x);
  qkv_ = &qkv;
  const int64_t d = static_cast<int64_t>(num_heads_) * head_dim_;
  // Kept rows query with their own Q rows and mask rows, gathered; the
  // gathered Q keeps head h in columns [h·hd, (h+1)·hd).
  kept_rows_forward_ = !kept_rows.empty();
  const nn::Tensor* queries = &qkv;
  const AttentionMask* query_mask = mask;
  if (kept_rows_forward_) {
    const int64_t n = static_cast<int64_t>(kept_rows.size());
    nn::Tensor& kept_queries = ws_.Get(kKeptQueries, {n, d});
    nn::GatherRows(nn::ColumnsView(qkv, 0, d), kept_rows, &kept_queries);
    queries = &kept_queries;
    if (mask != nullptr) {
      nn::Tensor& kept_mask = ws_.Get(kKeptMask, {n, s});
      nn::GatherRows(nn::FullView(*mask), kept_rows, &kept_mask);
      query_mask = &kept_mask;
    }
  }
  context_.ResizeUninitialized({queries->rows(), d});
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (int h = 0; h < num_heads_; ++h) {
    const int64_t off = static_cast<int64_t>(h) * head_dim_;
    nn::AttentionHeadForward(nn::ColumnsView(*queries, off, head_dim_),
                             nn::ColumnsView(qkv, d + off, head_dim_),
                             nn::ColumnsView(qkv, 2 * d + off, head_dim_),
                             scale, query_mask,
                             &ws_.Get(kKeysT, {head_dim_, s}),
                             &probs_[static_cast<size_t>(h)],
                             nn::MutColumnsView(&context_, off, head_dim_));
  }
  output_ = &wo_.Forward(context_);
  return *output_;
}

const nn::Tensor& MultiHeadSelfAttention::Backward(
    const nn::Tensor& grad_out) {
  DODUO_CHECK(output_ != nullptr && qkv_ != nullptr)
      << "Backward before Forward";
  DODUO_CHECK(!kept_rows_forward_)
      << "Backward after a kept-rows forward: only the kept rows were "
         "computed, so there is nothing to differentiate";
  const nn::Tensor& grad_context = wo_.Backward(grad_out);
  const int64_t s = grad_context.rows();
  const int64_t d = static_cast<int64_t>(num_heads_) * head_dim_;
  grad_qkv_.ResizeUninitialized({s, 3 * d});
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const nn::Tensor& qkv = *qkv_;
  for (int h = 0; h < num_heads_; ++h) {
    const size_t hi = static_cast<size_t>(h);
    const int64_t off = static_cast<int64_t>(h) * head_dim_;
    const nn::ConstMatView qh = nn::ColumnsView(qkv, off, head_dim_);
    const nn::ConstMatView kh = nn::ColumnsView(qkv, d + off, head_dim_);
    const nn::ConstMatView vh = nn::ColumnsView(qkv, 2 * d + off, head_dim_);
    const nn::ConstMatView dctx =
        nn::ColumnsView(grad_context, off, head_dim_);

    // ctx_h = P · V:  dP = dctx · Vᵀ, dV = Pᵀ · dctx.
    nn::Tensor& grad_probs = ws_.Get(kGradProbs, {s, s});
    nn::MatMulTransposedBView(dctx, vh, &grad_probs);
    nn::MatMulTransposedAView(
        nn::FullView(probs_[hi]), dctx,
        nn::MutColumnsView(&grad_qkv_, 2 * d + off, head_dim_));
    // Through softmax, then scores = scale · Q Kᵀ (the additive mask is
    // constant, so it drops out of the gradient).
    nn::Tensor& grad_scores = ws_.Get(kGradScores, {s, s});
    nn::SoftmaxRowsBackward(probs_[hi], grad_probs, &grad_scores);
    nn::Scale(&grad_scores, scale);
    nn::MatMulView(nn::FullView(grad_scores), kh,
                   nn::MutColumnsView(&grad_qkv_, off, head_dim_));
    nn::MatMulTransposedAView(
        nn::FullView(grad_scores), qh,
        nn::MutColumnsView(&grad_qkv_, d + off, head_dim_));
  }
  // Packed weight/bias gradients accumulate per element exactly as the
  // split projections' did. The input gradient is summed band by band —
  // (dQ·Wqᵀ + dK·Wkᵀ) + dV·Wvᵀ — instead of one dot over 3d columns, so
  // its FP order (and therefore every training trajectory) matches the
  // split-projection implementation bit-for-bit.
  wqkv_.AccumulateParameterGradients(grad_qkv_);
  const nn::Tensor& w = wqkv_.weight().value;
  nn::MatMulTransposedBView(nn::ColumnsView(grad_qkv_, 0, d),
                            nn::ColumnsView(w, 0, d), &grad_input_);
  nn::Tensor& part = ws_.Get(kGradInputPart, {s, d});
  nn::MatMulTransposedBView(nn::ColumnsView(grad_qkv_, d, d),
                            nn::ColumnsView(w, d, d), &part);
  nn::AddInPlace(&grad_input_, part);
  nn::MatMulTransposedBView(nn::ColumnsView(grad_qkv_, 2 * d, d),
                            nn::ColumnsView(w, 2 * d, d), &part);
  nn::AddInPlace(&grad_input_, part);
  return grad_input_;
}

nn::ParameterList MultiHeadSelfAttention::Parameters() {
  nn::ParameterList params;
  for (nn::Linear* layer : {&wqkv_, &wo_}) {
    nn::AppendParameters(layer->Parameters(), &params);
  }
  return params;
}

}  // namespace doduo::transformer
