// Integration tests: the full hardware datapath (crossbar matmuls +
// crossbar softmax) against the exact attention, plus the H-tree model.
#include <gtest/gtest.h>

#include <cmath>

#include "core/functional_attention.hpp"
#include "hw/interconnect.hpp"
#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
#include "support/encoder_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star::core {
namespace {

StarConfig nine_bit_cfg() {
  StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  return cfg;
}

/// attention_on_star on fresh engines built from `cfg`.
FunctionalAttentionResult run_on_star(const nn::Tensor& q, const nn::Tensor& k,
                                      const nn::Tensor& v, const StarConfig& cfg) {
  const MatmulEngine matmul(cfg);
  const SoftmaxEngine softmax_engine(cfg);
  SoftmaxRunState run;
  return attention_on_star(q, k, v, matmul, softmax_engine, run);
}

TEST(FunctionalAttention, TracksExactAttention) {
  Rng rng(1);
  const auto qkv = workload::random_qkv(24, 64, 2.0, rng);
  const auto res = run_on_star(qkv.q, qkv.k, qkv.v, nine_bit_cfg());

  nn::ExactSoftmaxInto exact;
  const auto ref = testing_ref::attention_head(qkv.q, qkv.k, qkv.v, exact);

  ASSERT_EQ(res.output.rows(), ref.rows());
  ASSERT_EQ(res.output.cols(), ref.cols());
  EXPECT_GT(cosine_similarity(ref.flat(), res.output.flat()), 0.97);
  EXPECT_LT(rms_diff(ref.flat(), res.output.flat()),
            0.3 * stddev(ref.flat()) + 0.05);
}

TEST(FunctionalAttention, ProbabilitiesAreValid) {
  Rng rng(2);
  const auto qkv = workload::random_qkv(16, 32, 2.0, rng);
  const auto res = run_on_star(qkv.q, qkv.k, qkv.v, nine_bit_cfg());
  for (std::size_t r = 0; r < res.probabilities.rows(); ++r) {
    double sum = 0.0;
    for (double p : res.probabilities.row(r)) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-9);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 0.05);
  }
}

TEST(FunctionalAttention, EngineReuseAcrossCalls) {
  Rng rng(3);
  const StarConfig cfg = nine_bit_cfg();
  const MatmulEngine matmul(cfg);
  const SoftmaxEngine softmax_engine(cfg);
  SoftmaxRunState run;
  const auto qkv = workload::random_qkv(8, 16, 2.0, rng);
  const auto a = attention_on_star(qkv.q, qkv.k, qkv.v, matmul, softmax_engine, run);
  const auto b = attention_on_star(qkv.q, qkv.k, qkv.v, matmul, softmax_engine, run);
  // Ideal device: deterministic datapath.
  EXPECT_DOUBLE_EQ(nn::Tensor::max_abs_diff(a.output, b.output), 0.0);
}

TEST(FunctionalAttention, ShapeChecks) {
  Rng rng(4);
  const auto q = nn::Tensor::randn(4, 8, rng);
  const auto k = nn::Tensor::randn(6, 10, rng);
  const auto v = nn::Tensor::randn(6, 4, rng);
  EXPECT_THROW(run_on_star(q, k, v, nine_bit_cfg()), InvalidArgument);
  const auto k2 = nn::Tensor::randn(6, 8, rng);
  const auto v2 = nn::Tensor::randn(5, 4, rng);
  EXPECT_THROW(run_on_star(q, k2, v2, nine_bit_cfg()), InvalidArgument);
}

}  // namespace
}  // namespace star::core

namespace star::hw {
namespace {

TEST(HTree, GeometryScales) {
  const TechNode tech = TechNode::n32();
  const HTree small(tech, 64, 128);
  const HTree big(tech, 1024, 128);
  EXPECT_GT(big.levels(), small.levels());
  EXPECT_GT(big.area().as_mm2(), small.area().as_mm2());
  EXPECT_GT(big.traversal_latency().as_ns(), small.traversal_latency().as_ns());
  EXPECT_GT(big.flit_energy().as_pJ(), small.flit_energy().as_pJ());
}

TEST(HTree, WiderBusCostsMore) {
  const TechNode tech = TechNode::n32();
  const HTree narrow(tech, 256, 32);
  const HTree wide(tech, 256, 256);
  EXPECT_GT(wide.area().as_mm2(), narrow.area().as_mm2());
  EXPECT_GT(wide.flit_energy().as_pJ(), narrow.flit_energy().as_pJ());
  // Latency is wire-length bound, not width bound.
  EXPECT_NEAR(wide.traversal_latency().as_ns(), narrow.traversal_latency().as_ns(),
              1e-9);
}

TEST(HTree, BacksCalibratedRowOverheadOrder) {
  // The calibrated 800 ns per-row overhead should be the right order of
  // magnitude for a few H-tree traversals plus buffering at BERT scale
  // (648 tiles/layer, 128-bit links).
  const HTree tree(TechNode::n32(), 648, 128);
  const double hop_ns = tree.traversal_latency().as_ns();
  EXPECT_GT(hop_ns * 2.0, 20.0);    // not negligible
  EXPECT_LT(hop_ns * 20.0, 4000.0); // and not dominating by 10x
}

TEST(HTree, Validation) {
  const TechNode tech = TechNode::n32();
  EXPECT_THROW(HTree(tech, 0, 128), InvalidArgument);
  EXPECT_THROW(HTree(tech, 64, 0), InvalidArgument);
}

}  // namespace
}  // namespace star::hw
