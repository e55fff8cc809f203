// Parity of the per-head attention kernel (nn::AttentionHeadForward and
// every member of nn::AttentionKernels: scalar, AVX2, AVX-512, whichever
// this CPU runs) with the copy-based test oracle, bit for bit: across
// sequence lengths around the 4- and 8-row blocks and the 8-, 16- and
// 32-key blocks, head widths on and off the blocked path, 1/2/8 threads,
// every mask kind, underflowing probabilities, and inf/NaN planted in Q, K
// and V to drive every fallback, with as many queries as keys and with
// fewer. A pinned digest of encoder outputs and attention probabilities
// ties the kernel to the implementation it replaced; the kept-rows
// encoder forward must give the full forward's rows.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "doduo/nn/ops.h"
#include "doduo/nn/quant.h"
#include "doduo/transformer/encoder.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"
#include "nn/softmax_oracle.h"
#include "transformer/attention_oracle.h"

namespace doduo::transformer {
namespace {

// Open the parallel-dispatch gate for every shape, so the multi-thread
// cases shard even the small ones (see ops_parallel_test.cc).
const bool g_force_parallel = [] {
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  return true;
}();

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr int64_t kSeqLens[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,   15,
                                16, 17, 31, 32, 33, 76, 77, 190, 192};
// 32: two full 16-column P·V bands; 40: two bands and an 8-column tail.
constexpr int64_t kHeadDims[] = {8, 12, 16, 24, 32, 40};

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

int CountMismatches(const nn::Tensor& want, const nn::Tensor& got,
                    const std::string& what) {
  EXPECT_EQ(want.shape(), got.shape()) << what;
  int mismatches = 0;
  for (int64_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (Bits(want.data()[i]) != Bits(got.data()[i]) && ++mismatches <= 3) {
      ADD_FAILURE() << what << " element " << i << ": want "
                    << want.data()[i] << " got " << got.data()[i];
    }
  }
  return mismatches;
}

enum class MaskKind { kNone, kZero, kRandomLarge, kRandomFinite, kNegInfRows };

const char* MaskName(MaskKind kind) {
  switch (kind) {
    case MaskKind::kNone:
      return "none";
    case MaskKind::kZero:
      return "zero";
    case MaskKind::kRandomLarge:
      return "random -1e9";
    case MaskKind::kRandomFinite:
      return "random finite";
    case MaskKind::kNegInfRows:
      return "-inf rows";
  }
  return "?";
}

AttentionMask MakeMask(MaskKind kind, int64_t s, util::Rng* rng) {
  AttentionMask mask({s, s});
  for (int64_t i = 0; i < s; ++i) {
    for (int64_t j = 0; j < s; ++j) {
      if (kind == MaskKind::kRandomLarge && i != j && rng->Bernoulli(0.4)) {
        mask.at(i, j) = kAttentionMaskValue;
      }
      // Moderate values, unlike 0 and -1e9, expose a scale·t + mask
      // contracted into one FMA rounding.
      if (kind == MaskKind::kRandomFinite) {
        mask.at(i, j) = rng->UniformFloat(-4.0f, 4.0f);
      }
      if (kind == MaskKind::kNegInfRows && i % 3 == 1) mask.at(i, j) = -kInf;
    }
  }
  return mask;
}

class AttentionKernelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::SetComputeThreads(GetParam()); }
  ~AttentionKernelTest() override { util::SetComputeThreads(1); }
};

TEST_P(AttentionKernelTest, LayerMatchesOracleBitForBit) {
  // Forward output, every head's probabilities, the input gradient and the
  // parameter gradients of the layer against the oracle.
  for (const int64_t hd : kHeadDims) {
    TransformerConfig config;
    config.hidden_dim = 2 * hd;
    config.num_heads = 2;
    config.dropout = 0.0f;
    util::Rng rng(100 + static_cast<uint64_t>(hd));
    MultiHeadSelfAttention attn("a", config, &rng);
    AttentionOracle oracle(&attn, config);
    for (const int64_t s : kSeqLens) {
      for (const MaskKind kind :
           {MaskKind::kNone, MaskKind::kZero, MaskKind::kRandomLarge,
            MaskKind::kRandomFinite, MaskKind::kNegInfRows}) {
        const std::string what = "hd " + std::to_string(hd) + " s " +
                                 std::to_string(s) + " mask " +
                                 MaskName(kind);
        nn::Tensor x({s, config.hidden_dim});
        x.FillUniform(&rng, 2.0f);
        nn::Tensor dy({s, config.hidden_dim});
        dy.FillUniform(&rng, 1.0f);
        const AttentionMask mask = MakeMask(kind, s, &rng);
        const AttentionMask* m = kind == MaskKind::kNone ? nullptr : &mask;

        nn::ZeroAllGrads(attn.Parameters());
        nn::ZeroAllGrads(oracle.Parameters());
        int bad = CountMismatches(oracle.Forward(x, m), attn.Forward(x, m),
                                  what + " output");
        for (size_t h = 0; h < 2; ++h) {
          bad += CountMismatches(oracle.attention_probs()[h],
                                 attn.attention_probs()[h],
                                 what + " probs head " + std::to_string(h));
        }
        bad += CountMismatches(oracle.Backward(dy), attn.Backward(dy),
                               what + " dx");
        const nn::ParameterList want = oracle.Parameters();
        const nn::ParameterList got = attn.Parameters();
        for (size_t p = 0; p < want.size(); ++p) {
          bad += CountMismatches(want[p]->grad, got[p]->grad,
                                 what + " grad " + got[p]->name);
        }
        ASSERT_EQ(bad, 0) << what;
      }
    }
  }
}

// Copy of the columns [col, col + width) of src.
nn::Tensor Band(const nn::Tensor& src, int64_t col, int64_t width) {
  nn::Tensor dst({src.rows(), width});
  for (int64_t i = 0; i < src.rows(); ++i) {
    for (int64_t c = 0; c < width; ++c) dst.at(i, c) = src.at(i, col + c);
  }
  return dst;
}

// The rows `rows` of src, in that order.
nn::Tensor PickRows(const nn::Tensor& src, const std::vector<int64_t>& rows) {
  nn::Tensor dst({static_cast<int64_t>(rows.size()), src.cols()});
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int64_t c = 0; c < src.cols(); ++c) {
      dst.at(static_cast<int64_t>(r), c) = src.at(rows[r], c);
    }
  }
  return dst;
}

// Query counts CheckHead runs at sequence length s: every row, and at
// three lengths also m < s queries over the s keys (the kept rows of a
// last encoder block).
std::vector<int64_t> QueryCounts(int64_t s) {
  if (s != 31 && s != 76 && s != 190) return {s};
  return {s, 1, 5, 8, 9, s - 1};
}

// AttentionHeadForward and every member of its family on the q/k/v bands
// of a packed buffer against the oracle's contiguous ops; ctx is a band of
// a wider buffer whose other columns must stay untouched. The last m rows
// of the q band query all s keys, for every m in QueryCounts(s).
int CheckHead(const nn::Tensor& packed, int64_t hd, float scale,
              const AttentionMask* mask, const std::string& what) {
  const int64_t s = packed.rows();
  const nn::Tensor k = Band(packed, hd, hd);
  const nn::Tensor v = Band(packed, 2 * hd, hd);
  int bad = 0;
  for (const int64_t m : QueryCounts(s)) {
    const int64_t first = s - m;
    std::vector<int64_t> rows(static_cast<size_t>(m));
    std::iota(rows.begin(), rows.end(), first);
    const nn::Tensor q = PickRows(Band(packed, 0, hd), rows);
    nn::Tensor query_mask;
    if (mask != nullptr) query_mask = PickRows(*mask, rows);
    const AttentionMask* qmask = mask != nullptr ? &query_mask : nullptr;
    nn::Tensor t;
    nn::MatMulTransposedB(q, k, &t);
    nn::Scale(&t, scale);
    if (qmask != nullptr) nn::AddInPlace(&t, *qmask);
    nn::Tensor want_probs;
    nn::OracleSoftmaxRows(t, &want_probs);
    nn::Tensor want_ctx;
    nn::MatMul(want_probs, v, &want_ctx);

    nn::ConstMatView q_view = nn::ColumnsView(packed, 0, hd);
    q_view.data += first * q_view.stride;
    q_view.rows = m;
    std::vector<nn::AttentionKernel> members = nn::AttentionKernels();
    members.push_back({"dispatched", nullptr, &nn::AttentionHeadForward});
    for (const nn::AttentionKernel& member : members) {
      const std::string name =
          what + (m < s ? " m " + std::to_string(m) : std::string()) + " [" +
          member.name + "]";
      nn::Tensor ctx_buffer({m, hd + 3});
      ctx_buffer.Fill(7.0f);
      nn::Tensor kt, probs;
      member.head(q_view, nn::ColumnsView(packed, hd, hd),
                  nn::ColumnsView(packed, 2 * hd, hd), scale, qmask, &kt,
                  &probs, nn::MutColumnsView(&ctx_buffer, 1, hd));
      bad += CountMismatches(want_probs, probs, name + " probs");
      bad += CountMismatches(want_ctx, Band(ctx_buffer, 1, hd), name + " ctx");
      for (int64_t i = 0; i < m; ++i) {
        for (const int64_t c : {int64_t{0}, hd + 1, hd + 2}) {
          if (ctx_buffer.at(i, c) != 7.0f && ++bad <= 3) {
            ADD_FAILURE() << name << " wrote outside ctx at " << i << ","
                          << c;
          }
        }
      }
    }
  }
  return bad;
}

TEST_P(AttentionKernelTest, HeadKernelMatchesOracleWithPlantedNonFinite) {
  util::Rng rng(7);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t hd : kHeadDims) {
    for (const int64_t s : kSeqLens) {
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
      // Columns [0, 3hd) hold q | k | v; one spare column makes the views
      // strided.
      nn::Tensor packed({s, 3 * hd + 1});
      packed.FillUniform(&rng, 2.0f);
      const AttentionMask large = MakeMask(MaskKind::kRandomLarge, s, &rng);
      const AttentionMask finite = MakeMask(MaskKind::kRandomFinite, s, &rng);
      const AttentionMask neg_inf = MakeMask(MaskKind::kNegInfRows, s, &rng);
      const std::string base =
          "hd " + std::to_string(hd) + " s " + std::to_string(s);
      int bad = CheckHead(packed, hd, scale, nullptr, base + " clean");
      bad += CheckHead(packed, hd, scale, &large, base + " masked");
      bad += CheckHead(packed, hd, scale, &finite, base + " finite mask");
      bad += CheckHead(packed, hd, scale, &neg_inf, base + " -inf rows");

      // Logits hundreds apart: most probabilities underflow to exactly 0,
      // which the reference's P·V skips and the blocked kernel adds.
      nn::Tensor wide = packed;
      for (int64_t i = 0; i < s; ++i) {
        for (int64_t c = 0; c < 2 * hd; ++c) wide.at(i, c) *= 12.0f;
      }
      bad += CheckHead(wide, hd, 1.0f, nullptr, base + " underflow");
      bad += CheckHead(wide, hd, 1.0f, &large, base + " underflow masked");

      // inf or NaN planted in one element of Q, of K, then of V.
      const int64_t row = rng.UniformInt(0, s - 1);
      const int64_t col = rng.UniformInt(0, hd - 1);
      for (const int64_t part : {0, 1, 2}) {
        for (const float special : {kInf, -kInf, nan}) {
          nn::Tensor planted = packed;
          planted.at(row, part * hd + col) = special;
          const std::string what = base + " planted " +
                                   std::to_string(special) + " in " +
                                   "QKV"[part];
          bad += CheckHead(planted, hd, scale, nullptr, what);
          bad += CheckHead(planted, hd, scale, &large, what + " masked");
        }
      }
      // An inf V row that only masked-out (p = 0) queries would read.
      nn::Tensor inf_v = wide;
      inf_v.at(row, 2 * hd + col) = kInf;
      AttentionMask hide = MakeMask(MaskKind::kZero, s, &rng);
      for (int64_t i = 0; i < s; ++i) {
        if (i != row) hide.at(i, row) = kAttentionMaskValue;
      }
      bad += CheckHead(inf_v, hd, 1.0f, &hide, base + " inf v hidden");
      ASSERT_EQ(bad, 0) << base;
    }
  }
}

TEST_P(AttentionKernelTest, FusedEpilogueMatchesScalarMemberAtEveryLength) {
  // The SIMD heads scale, mask, store and reduce the logits in the q·kᵀ
  // registers; the scalar member runs the unfused ops. Every s in 1..200 at
  // hd 16, plain, with a random -1e9 mask, with -inf mask rows, with a
  // finite random mask, and with an inf planted in one query row (its
  // logits are non-finite, so that row takes the scalar softmax row).
  const std::vector<nn::AttentionKernel> members = nn::AttentionKernels();
  ASSERT_EQ(std::string(members[0].name), "scalar");
  constexpr int64_t hd = 16;
  const float scale = 0.25f;
  util::Rng rng(11);
  for (int64_t s = 1; s <= 200; ++s) {
    nn::Tensor packed({s, 3 * hd});
    packed.FillUniform(&rng, 2.0f);
    const AttentionMask large = MakeMask(MaskKind::kRandomLarge, s, &rng);
    const AttentionMask neg_inf = MakeMask(MaskKind::kNegInfRows, s, &rng);
    const AttentionMask finite = MakeMask(MaskKind::kRandomFinite, s, &rng);
    nn::Tensor planted = packed;
    planted.at(rng.UniformInt(0, s - 1), rng.UniformInt(0, hd - 1)) = kInf;
    struct Case {
      const nn::Tensor* qkv;
      const AttentionMask* mask;
      const char* name;
    };
    const Case cases[] = {{&packed, nullptr, "plain"},
                          {&packed, &large, "masked"},
                          {&packed, &neg_inf, "-inf rows"},
                          {&packed, &finite, "finite mask"},
                          {&planted, &large, "inf query row"}};
    int bad = 0;
    for (const Case& c : cases) {
      const auto run = [&](const nn::AttentionKernel& member,
                           nn::Tensor* probs, nn::Tensor* ctx) {
        *ctx = nn::Tensor({s, hd});
        nn::Tensor kt;
        member.head(nn::ColumnsView(*c.qkv, 0, hd),
                    nn::ColumnsView(*c.qkv, hd, hd),
                    nn::ColumnsView(*c.qkv, 2 * hd, hd), scale, c.mask, &kt,
                    probs, nn::MutColumnsView(ctx, 0, hd));
      };
      nn::Tensor want_probs, want_ctx;
      run(members[0], &want_probs, &want_ctx);
      for (size_t i = 1; i < members.size(); ++i) {
        const std::string what = "s " + std::to_string(s) + " " + c.name +
                                 " [" + members[i].name + "]";
        nn::Tensor probs, ctx;
        run(members[i], &probs, &ctx);
        bad += CountMismatches(want_probs, probs, what + " probs");
        bad += CountMismatches(want_ctx, ctx, what + " ctx");
      }
    }
    ASSERT_EQ(bad, 0) << "s " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AttentionKernelTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

// FNV-1a over the little-endian bytes of every element's bit pattern.
void MixDigest(uint64_t* h, const nn::Tensor& t) {
  for (int64_t i = 0; i < t.size(); ++i) {
    const uint32_t b = Bits(t.data()[i]);
    for (int k = 0; k < 4; ++k) {
      *h ^= (b >> (8 * k)) & 0xffu;
      *h *= 1099511628211ull;
    }
  }
}

TEST(AttentionDigestTest, EncoderOutputsAndProbsMatchPinnedDigest) {
  // Two-layer, four-head encoders at hd 16 (the blocked kernel) and hd 12
  // (the view GEMMs) over s in {1, 3, ..., 192}, without a mask and with a
  // random -1e9 mask: the digest of every output and every head's
  // probabilities. Recorded on the implementation this kernel replaced
  // (libm expf softmax, strided view GEMMs), so it holds with DODUO_SIMD=1
  // and 0 (ctest runs both) and at any thread count. Inputs and weights are
  // drawn with UniformFloat, so the digest does not depend on libm.
  constexpr uint64_t kPinnedDigest = 0x0392160a86d20262ull;
  uint64_t h = 1469598103934665603ull;
  for (const int64_t hd : {16, 12}) {
    TransformerConfig config;
    config.hidden_dim = 4 * hd;
    config.num_heads = 4;
    config.ffn_dim = 16 * hd;
    config.num_layers = 2;
    config.max_positions = 192;
    config.dropout = 0.0f;
    util::Rng rng(1000 + static_cast<uint64_t>(hd));
    Encoder encoder("enc", config, &rng);
    encoder.set_training(false);
    for (const int64_t s : {1, 3, 7, 8, 9, 16, 17, 33, 76, 77, 190, 192}) {
      for (const bool masked : {false, true}) {
        nn::Tensor x({s, config.hidden_dim});
        x.FillUniform(&rng, 2.0f);
        AttentionMask mask({s, s});
        for (int64_t i = 0; i < s; ++i) {
          for (int64_t j = 0; j < s; ++j) {
            if (i != j && rng.UniformInt(0, 3) == 0) {
              mask.at(i, j) = kAttentionMaskValue;
            }
          }
        }
        MixDigest(&h, encoder.Forward(x, masked ? &mask : nullptr));
        for (int l = 0; l < encoder.num_layers(); ++l) {
          for (const nn::Tensor& p : encoder.attention_probs(l)) {
            MixDigest(&h, p);
          }
        }
      }
    }
  }
  EXPECT_EQ(h, kPinnedDigest) << std::hex << "got 0x" << h;
}

// The kept-row sets of a kept-rows forward at sequence length s: the
// first row, the last, every ninth, and all of them.
std::vector<std::vector<int64_t>> KeptRowSets(int64_t s) {
  std::vector<int64_t> every_ninth;
  std::vector<int64_t> all;
  for (int64_t i = 0; i < s; ++i) {
    if (i % 9 == 0) every_ninth.push_back(i);
    all.push_back(i);
  }
  return {{0}, {s - 1}, every_ninth, all};
}

class KeptRowsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::SetComputeThreads(GetParam()); }
  ~KeptRowsTest() override {
    util::SetComputeThreads(1);
    nn::SetQuantEnabled(quant_was_);
  }
  const bool quant_was_ = nn::QuantEnabled();
};

TEST_P(KeptRowsTest, LastBlockKeptRowsMatchFullForwardBitForBit) {
  // The AttentionDigestTest grid, fp32 and int8: every kept-rows forward's
  // output rows and last-layer probability rows are the full forward's,
  // bit for bit.
  for (const bool quant : {false, true}) {
    nn::SetQuantEnabled(quant);
    for (const int64_t hd : {16, 12}) {
      TransformerConfig config;
      config.hidden_dim = 4 * hd;
      config.num_heads = 4;
      config.ffn_dim = 16 * hd;
      config.num_layers = 2;
      config.max_positions = 192;
      config.dropout = 0.0f;
      util::Rng rng(1000 + static_cast<uint64_t>(hd));
      Encoder encoder("enc", config, &rng);
      encoder.set_training(false);
      const int last = encoder.num_layers() - 1;
      for (const int64_t s : {1, 3, 7, 8, 9, 16, 17, 33, 76, 77, 190, 192}) {
        for (const bool masked : {false, true}) {
          nn::Tensor x({s, config.hidden_dim});
          x.FillUniform(&rng, 2.0f);
          const AttentionMask mask = MakeMask(MaskKind::kRandomLarge, s, &rng);
          const AttentionMask* m = masked ? &mask : nullptr;
          const nn::Tensor full = encoder.Forward(x, m);
          const std::vector<nn::Tensor> full_probs =
              encoder.attention_probs(last);
          for (const std::vector<int64_t>& rows : KeptRowSets(s)) {
            const std::string what =
                std::string(quant ? "int8" : "fp32") + " hd " +
                std::to_string(hd) + " s " + std::to_string(s) +
                (masked ? " masked" : "") + " kept " +
                std::to_string(rows.size()) + " from row " +
                std::to_string(rows.back());
            int bad = CountMismatches(PickRows(full, rows),
                                      encoder.Forward(x, m, rows),
                                      what + " output");
            for (size_t h = 0; h < full_probs.size(); ++h) {
              bad += CountMismatches(PickRows(full_probs[h], rows),
                                     encoder.attention_probs(last)[h],
                                     what + " probs head " +
                                         std::to_string(h));
            }
            ASSERT_EQ(bad, 0) << what;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KeptRowsTest, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

}  // namespace
}  // namespace doduo::transformer
