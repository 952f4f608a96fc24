// Cross-module property sweeps: end-to-end invariants that hold across
// formats, distributions, sequence lengths and device corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "baseline/softermax.hpp"
#include "core/accelerator.hpp"
#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/accuracy_proxy.hpp"
#include "workload/dataset_profile.hpp"

namespace star {
namespace {

/// One row through a span-writing softmax, returned by value.
std::vector<double> run(nn::RowSoftmaxInto& impl, std::span<const double> row) {
  std::vector<double> out(row.size());
  impl(row, out);
  return out;
}

// --- Property 1: every softmax implementation in the repo is a valid
// probability map (non-negative, ~normalised) across dataset
// distributions, and the high-precision implementations preserve argmax. ---

class SoftmaxContract
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SoftmaxContract, ValidProbabilityMap) {
  const auto [dataset, seed] = GetParam();
  const workload::DatasetProfile profile =
      dataset == "CNEWS" ? workload::DatasetProfile::cnews()
      : dataset == "MRPC" ? workload::DatasetProfile::mrpc()
                          : workload::DatasetProfile::cola();

  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine engine(cfg);
  core::SoftmaxRunState engine_run;
  core::SoftmaxEngineRowRef star(engine, engine_run);
  baseline::SoftermaxUnit softer(hw::TechNode::n32());
  nn::ExactSoftmaxInto exact;

  Rng rng(static_cast<std::uint64_t>(seed) * 104729);
  for (int trial = 0; trial < 10; ++trial) {
    const auto row = profile.sample_row(64, rng);
    for (nn::RowSoftmaxInto* impl :
         std::initializer_list<nn::RowSoftmaxInto*>{&star, &softer, &exact}) {
      const auto p = run(*impl, row);
      ASSERT_EQ(p.size(), row.size());
      double sum = 0.0;
      for (double v : p) {
        EXPECT_GE(v, 0.0) << impl->name();
        EXPECT_LE(v, 1.0 + 1e-9) << impl->name();
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0, 0.05) << impl->name();
      // The dominant element survives the high-precision implementations
      // (Softermax's 0.25-step base-2 input grid may legitimately tie
      // MRPC's sub-LSB contenders, so it is excluded here).
      if (impl != static_cast<nn::RowSoftmaxInto*>(&softer)) {
        EXPECT_EQ(argmax(p), argmax(std::span<const double>(row)))
            << impl->name() << " on " << dataset;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, SoftmaxContract,
    ::testing::Combine(::testing::Values("CNEWS", "MRPC", "CoLA"),
                       ::testing::Values(1, 2, 3)));

// --- Property 2: engine accuracy degrades monotonically (in expectation)
// as fraction bits shrink. ---

TEST(Monotonicity, EngineErrorGrowsAsFormatShrinks) {
  Rng rng(99);
  const auto profile = workload::DatasetProfile::cnews();
  std::vector<double> rmse_by_bits;
  for (int f : {4, 3, 2, 1}) {
    core::StarConfig cfg;
    cfg.softmax_format = fxp::make_unsigned(6, f);
    const core::SoftmaxEngine engine(cfg);
    core::SoftmaxRunState engine_run;
    core::SoftmaxEngineRowRef star(engine, engine_run);
    nn::ExactSoftmaxInto exact_softmax;
    Rng local(7);
    double se = 0.0;
    std::size_t n = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const auto row = profile.sample_row(48, local);
      // Clamp into the engine window.
      std::vector<double> clamped(row);
      const double half = std::ldexp(1.0, cfg.softmax_format.total_bits() - 1) *
                          cfg.softmax_format.resolution() * 0.9;
      for (auto& v : clamped) {
        v = std::clamp(v, -half, half);
      }
      const auto exact = run(exact_softmax, clamped);
      const auto got = run(star, clamped);
      for (std::size_t i = 0; i < exact.size(); ++i) {
        se += (exact[i] - got[i]) * (exact[i] - got[i]);
      }
      n += exact.size();
    }
    rmse_by_bits.push_back(std::sqrt(se / static_cast<double>(n)));
  }
  for (std::size_t i = 1; i < rmse_by_bits.size(); ++i) {
    EXPECT_GE(rmse_by_bits[i], rmse_by_bits[i - 1] * 0.9)
        << "fewer fraction bits should not be more accurate";
  }
  EXPECT_GT(rmse_by_bits.back(), rmse_by_bits.front());
}

// --- Property 3: engine cost scales linearly-ish in row length. ---

TEST(Scaling, EngineRowCostsScaleNearLinearly) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine engine(cfg);
  // Row cost = per-element term x d + per-row constants (summation VMM,
  // priority encode, divider drain), so the 8x element-count ratio shows up
  // attenuated but clearly super-constant.
  const double e64 = engine.row_energy(64).as_pJ();
  const double e512 = engine.row_energy(512).as_pJ();
  EXPECT_GT(e512 / e64, 4.0);
  EXPECT_LT(e512 / e64, 9.0);
  const double t64 = engine.row_latency(64).as_ns();
  const double t512 = engine.row_latency(512).as_ns();
  EXPECT_GT(t512 / t64, 4.0);
  EXPECT_LT(t512 / t64, 9.0);
}

// --- Property 4: device non-idealities degrade but do not break the
// engine (probabilities remain valid). ---

class NoisyDeviceSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoisyDeviceSweep, EngineSurvivesDeviceVariation) {
  const double sigma = GetParam();
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kCnewsFormat;
  cfg.device = xbar::RramDevice::noisy(2, sigma, 0.0);
  const core::SoftmaxEngine engine(cfg);
  core::SoftmaxRunState engine_run;
  core::SoftmaxEngineRowRef star(engine, engine_run);
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> row(32);
    for (auto& v : row) {
      v = rng.uniform(-20.0, 10.0);
    }
    const auto p = run(star, row);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoisyDeviceSweep,
                         ::testing::Values(0.0, 0.01, 0.03, 0.05));

// --- Property 5: Fig. 3 efficiency is stable under moderate sequence
// lengths (STAR does not collapse the way the GPU does). ---

class StarLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(StarLengthSweep, EfficiencyStaysInDecade) {
  const int l = GetParam();
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::StarAccelerator acc(cfg);
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), l);
  EXPECT_GT(res.report.gops_per_watt(), 150.0) << "L=" << l;
  EXPECT_LT(res.report.gops_per_watt(), 2000.0) << "L=" << l;
}

INSTANTIATE_TEST_SUITE_P(Lengths, StarLengthSweep,
                         ::testing::Values(32, 64, 128, 256, 512, 1024));

// --- Property 6: oracle and engine agree on dataset-profile rows too
// (not just uniform random rows). ---

TEST(OracleAgreement, DatasetRowsWithinWindow) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine engine(cfg);
  core::SoftmaxRunState engine_run;
  core::SoftmaxEngineRowRef star(engine, engine_run);
  const double half = std::ldexp(1.0, cfg.softmax_format.total_bits() - 1) *
                      cfg.softmax_format.resolution();
  Rng rng(17);
  const auto profile = workload::DatasetProfile::cola();  // spread < 32 fits
  const double tol = std::ldexp(1.0, -engine.prob_frac_bits()) * 1.5;
  for (int trial = 0; trial < 20; ++trial) {
    auto row = profile.sample_row(64, rng);
    bool in_window = true;
    for (double v : row) {
      in_window = in_window && std::fabs(v) < half * 0.95;
    }
    if (!in_window) {
      continue;
    }
    const auto oracle =
        workload::quantized_softmax(row, cfg.softmax_format, engine.lut_frac_bits());
    const auto got = run(star, row);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], oracle[i], tol);
    }
  }
}

}  // namespace
}  // namespace star
