// Test oracle for MultiHeadSelfAttention: the pre-fusion, copy-based
// implementation. Each head's Q, K and V band is copied out of the packed
// [s, 3d] projection, scores are a contiguous Q·Kᵀ, then Scale →
// AddInPlace → the scalar softmax oracle → P·V, and the head's context is
// copied back. It shares the layer's weights (copied in at construction)
// and reproduces its forward and backward bit for bit, so the per-head
// kernel and its SIMD twin are checked against plain contiguous ops.

#ifndef DODUO_TESTS_TRANSFORMER_ATTENTION_ORACLE_H_
#define DODUO_TESTS_TRANSFORMER_ATTENTION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "doduo/nn/linear.h"
#include "doduo/nn/ops.h"
#include "doduo/transformer/attention.h"
#include "nn/softmax_oracle.h"

namespace doduo::transformer {

class AttentionOracle {
 public:
  /// Copies `attn`'s packed projection weights; `config` must be the one
  /// `attn` was built with.
  AttentionOracle(MultiHeadSelfAttention* attn,
                  const TransformerConfig& config)
      : num_heads_(config.num_heads),
        head_dim_(config.head_dim()),
        wqkv_("oracle.wqkv", config.hidden_dim, 3 * config.hidden_dim,
              nullptr),
        wo_("oracle.wo", config.hidden_dim, config.hidden_dim, nullptr) {
    const nn::ParameterList params = attn->Parameters();
    nn::ParameterList mine = Parameters();
    for (size_t p = 0; p < mine.size(); ++p) {
      mine[p]->value = params[p]->value;
    }
    probs_.resize(static_cast<size_t>(num_heads_));
  }

  const nn::Tensor& Forward(const nn::Tensor& x, const AttentionMask* mask) {
    const int64_t s = x.rows();
    const int64_t d = static_cast<int64_t>(num_heads_) * head_dim_;
    qkv_ = &wqkv_.Forward(x);
    context_.ResizeUninitialized({s, d});
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    for (int h = 0; h < num_heads_; ++h) {
      const int64_t off = static_cast<int64_t>(h) * head_dim_;
      const nn::Tensor q = Band(*qkv_, off);
      const nn::Tensor k = Band(*qkv_, d + off);
      const nn::Tensor v = Band(*qkv_, 2 * d + off);
      nn::Tensor scores;
      nn::MatMulTransposedB(q, k, &scores);
      nn::Scale(&scores, scale);
      if (mask != nullptr) nn::AddInPlace(&scores, *mask);
      nn::OracleSoftmaxRows(scores, &probs_[static_cast<size_t>(h)]);
      nn::Tensor head_context;
      nn::MatMul(probs_[static_cast<size_t>(h)], v, &head_context);
      InsertBand(head_context, off, &context_);
    }
    return wo_.Forward(context_);
  }

  const nn::Tensor& Backward(const nn::Tensor& grad_out) {
    const nn::Tensor& grad_context = wo_.Backward(grad_out);
    const int64_t s = grad_context.rows();
    const int64_t d = static_cast<int64_t>(num_heads_) * head_dim_;
    grad_qkv_.ResizeUninitialized({s, 3 * d});
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    for (int h = 0; h < num_heads_; ++h) {
      const size_t hi = static_cast<size_t>(h);
      const int64_t off = static_cast<int64_t>(h) * head_dim_;
      const nn::Tensor grad_head_ctx = Band(grad_context, off);
      const nn::Tensor v = Band(*qkv_, 2 * d + off);
      // ctx_h = P · V:  dP = dctx · Vᵀ, dV = Pᵀ · dctx.
      nn::Tensor grad_probs, grad_v;
      nn::MatMulTransposedB(grad_head_ctx, v, &grad_probs);
      TransposedAProduct(probs_[hi], grad_head_ctx, &grad_v);
      // Through softmax, then scores = scale · Q Kᵀ.
      nn::Tensor grad_scores;
      nn::SoftmaxRowsBackward(probs_[hi], grad_probs, &grad_scores);
      nn::Scale(&grad_scores, scale);
      nn::Tensor grad_q, grad_k;
      nn::MatMul(grad_scores, Band(*qkv_, d + off), &grad_q);
      TransposedAProduct(grad_scores, Band(*qkv_, off), &grad_k);
      InsertBand(grad_q, off, &grad_qkv_);
      InsertBand(grad_k, d + off, &grad_qkv_);
      InsertBand(grad_v, 2 * d + off, &grad_qkv_);
    }
    // Packed weight gradients, then the band-by-band input gradient
    // (dQ·Wqᵀ + dK·Wkᵀ) + dV·Wvᵀ, as the layer sums it.
    wqkv_.AccumulateParameterGradients(grad_qkv_);
    const nn::Tensor& w = wqkv_.weight().value;
    for (int part = 0; part < 3; ++part) {
      const int64_t col = static_cast<int64_t>(part) * d;
      nn::Tensor term;
      nn::MatMulTransposedB(Band(grad_qkv_, col, d), Band(w, col, d), &term);
      if (part == 0) {
        grad_input_ = term;
      } else {
        nn::AddInPlace(&grad_input_, term);
      }
    }
    return grad_input_;
  }

  const std::vector<nn::Tensor>& attention_probs() const { return probs_; }

  nn::ParameterList Parameters() {
    nn::ParameterList params;
    for (nn::Linear* layer : {&wqkv_, &wo_}) {
      nn::AppendParameters(layer->Parameters(), &params);
    }
    return params;
  }

 private:
  // Copy of the columns [col, col + width) of src (width head_dim_ when 0).
  nn::Tensor Band(const nn::Tensor& src, int64_t col, int64_t width = 0) {
    if (width == 0) width = head_dim_;
    nn::Tensor dst({src.rows(), width});
    for (int64_t i = 0; i < src.rows(); ++i) {
      std::copy(src.row(i) + col, src.row(i) + col + width, dst.row(i));
    }
    return dst;
  }

  // out = aᵀ · b through the accumulating entry point, from zero.
  static void TransposedAProduct(const nn::Tensor& a, const nn::Tensor& b,
                                 nn::Tensor* out) {
    *out = nn::Tensor({a.cols(), b.cols()});
    nn::MatMulTransposedAAccum(a, b, out);
  }

  static void InsertBand(const nn::Tensor& src, int64_t col,
                         nn::Tensor* dst) {
    for (int64_t i = 0; i < src.rows(); ++i) {
      std::copy(src.row(i), src.row(i) + src.cols(), dst->row(i) + col);
    }
  }

  int num_heads_;
  int head_dim_;
  nn::Linear wqkv_;
  nn::Linear wo_;
  const nn::Tensor* qkv_ = nullptr;
  std::vector<nn::Tensor> probs_;
  nn::Tensor context_;
  nn::Tensor grad_qkv_;
  nn::Tensor grad_input_;
};

}  // namespace doduo::transformer

#endif  // DODUO_TESTS_TRANSFORMER_ATTENTION_ORACLE_H_
