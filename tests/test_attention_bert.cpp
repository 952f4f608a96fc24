// Tests for attention, BERT encoder layer and the analytic op counts.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/opcount.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::nn {
namespace {

TEST(Attention, ScoresAreScaledDotProducts) {
  // The score kernel pair multi_head_attention_into runs per head.
  Rng rng(1);
  const auto q = Tensor::randn(4, 8, rng);
  const auto k = Tensor::randn(6, 8, rng);
  Tensor s(4, 6);
  matmul_transb_into(view_of(q), view_of(k), view_of(s));
  scale_inplace(view_of(s), 1.0 / std::sqrt(8.0));
  double expected = 0.0;
  for (std::size_t d = 0; d < 8; ++d) {
    expected += q.at(1, d) * k.at(2, d);
  }
  expected /= std::sqrt(8.0);
  EXPECT_NEAR(s.at(1, 2), expected, 1e-12);
}

/// Runs multi_head_attention_into on a fresh arena into a new tensor.
Tensor mha(const Tensor& x, const MhaWeights& w) {
  Workspace ws;
  ws.require_capacity(1 << 14);
  ExactSoftmaxInto sm;
  Tensor out(x.rows(), w.wo.cols());
  multi_head_attention_into(view_of(x), w, sm, ws, view_of(out));
  return out;
}

TEST(Attention, RowsAreConvexCombinationsOfV) {
  // x's column 0 is all ones and only row 0 of Wv is non-zero (all ones),
  // so every head's V is all ones; with Wo the identity, every output is
  // a convex combination of ones.
  Rng rng(3);
  auto w = MhaWeights::random(2, 8, 4, rng);
  auto x = Tensor::randn(6, 8, rng);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x.at(r, 0) = 1.0;
  }
  for (std::size_t r = 0; r < w.wv.rows(); ++r) {
    for (std::size_t c = 0; c < w.wv.cols(); ++c) {
      w.wv.at(r, c) = r == 0 ? 1.0 : 0.0;
    }
  }
  for (std::size_t r = 0; r < w.wo.rows(); ++r) {
    for (std::size_t c = 0; c < w.wo.cols(); ++c) {
      w.wo.at(r, c) = r == c ? 1.0 : 0.0;
    }
  }
  const auto out = mha(x, w);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out.at(r, c), 1.0, 1e-12);
    }
  }
}

TEST(MultiHeadAttention, ShapesAndDeterminism) {
  Rng rng(5);
  const auto w = MhaWeights::random(4, 32, 8, rng);
  Rng xrng(6);
  const auto x = Tensor::randn(10, 32, xrng);
  const auto y1 = mha(x, w);
  const auto y2 = mha(x, w);
  ASSERT_EQ(y1.rows(), 10u);
  ASSERT_EQ(y1.cols(), 32u);
  EXPECT_TRUE(Tensor::bit_identical(y1, y2));
}

TEST(Bert, ConfigsValidate) {
  EXPECT_NO_THROW(BertConfig::base().validate());
  EXPECT_NO_THROW(BertConfig::large().validate());
  EXPECT_NO_THROW(BertConfig::tiny().validate());
  EXPECT_EQ(BertConfig::base().d_head(), 64);
  BertConfig bad = BertConfig::base();
  bad.heads = 7;  // 768 not divisible by 7
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(Bert, EncoderLayerForwardRuns) {
  const BertConfig cfg = BertConfig::tiny();
  Rng rng(7);
  const auto w = EncoderLayerWeights::random(cfg, rng);
  const auto x = Tensor::randn(6, static_cast<std::size_t>(cfg.d_model), rng);
  ExactSoftmaxInto sm;
  Workspace ws;
  ws.require_capacity(encoder_workspace_doubles(cfg, 6));
  Tensor y(6, static_cast<std::size_t>(cfg.d_model));
  encoder_layer_forward_into(view_of(x), w, sm, ws, view_of(y));
  ASSERT_EQ(y.rows(), 6u);
  ASSERT_EQ(y.cols(), static_cast<std::size_t>(cfg.d_model));
  for (double v : y.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

// ---------- op counts ----------

TEST(OpCount, BertBaseAt128MatchesHandComputation) {
  const auto c = attention_op_counts(BertConfig::base(), 128);
  EXPECT_DOUBLE_EQ(c.proj_macs, 4.0 * 128.0 * 768.0 * 768.0);
  EXPECT_DOUBLE_EQ(c.score_macs, 12.0 * 128.0 * 128.0 * 64.0);
  EXPECT_DOUBLE_EQ(c.context_macs, 12.0 * 128.0 * 128.0 * 64.0);
  EXPECT_DOUBLE_EQ(c.softmax_elems, 12.0 * 128.0 * 128.0);
  EXPECT_DOUBLE_EQ(c.matmul_ops(),
                   2.0 * (c.proj_macs + c.score_macs + c.context_macs));
  EXPECT_DOUBLE_EQ(c.softmax_ops(), 5.0 * c.softmax_elems);
}

TEST(OpCount, SoftmaxShareOfOpsGrowsWithLength) {
  const auto cfg = BertConfig::base();
  double prev = 0.0;
  for (std::int64_t l : {64, 128, 256, 512, 1024}) {
    const auto c = attention_op_counts(cfg, l);
    const double share = c.softmax_ops() / c.total_ops();
    EXPECT_GT(share, prev);
    prev = share;
  }
}

TEST(OpCount, FfnMacs) {
  EXPECT_DOUBLE_EQ(ffn_macs(BertConfig::base(), 128),
                   2.0 * 128.0 * 768.0 * 3072.0);
}

TEST(OpCount, RejectsBadSeqLen) {
  EXPECT_THROW(attention_op_counts(BertConfig::base(), 0), InvalidArgument);
}

}  // namespace
}  // namespace star::nn
