// Tests for the CMOS baseline softmax and Softermax — functional behaviour
// and the Table I area/power ratio bands.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"
#include "support/softermax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/dataset_profile.hpp"

namespace star::baseline {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

std::vector<double> random_row(Rng& rng, std::size_t n, double lo = -20.0,
                               double hi = 8.0) {
  std::vector<double> row(n);
  for (auto& v : row) {
    v = rng.uniform(lo, hi);
  }
  return row;
}

/// One row through a span-writing softmax, returned by value.
std::vector<double> run(nn::RowSoftmaxInto& impl, std::span<const double> row) {
  std::vector<double> out(row.size());
  impl(row, out);
  return out;
}

std::vector<double> exact_softmax(std::span<const double> row) {
  std::vector<double> out(row.size());
  nn::softmax_into(row, out);
  return out;
}

// ---------- CMOS baseline ----------

TEST(CmosSoftmax, CloseToExact) {
  CmosSoftmaxUnit unit(kTech);
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto row = random_row(rng, 64);
    const auto exact = exact_softmax(row);
    const auto got = run(unit, row);
    EXPECT_LT(max_abs_diff(exact, got), 2e-4);  // 16-bit output grid
    EXPECT_EQ(argmax(exact), argmax(got));
  }
}

TEST(CmosSoftmax, OutputsNearNormalised) {
  CmosSoftmaxUnit unit(kTech);
  Rng rng(2);
  const auto row = random_row(rng, 128);
  const auto p = run(unit, row);
  const double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 128.0 * std::ldexp(1.0, -16));
}

TEST(CmosSoftmax, MoreLanesAreFasterButBigger) {
  CmosSoftmaxConfig narrow;
  narrow.lanes = 4;
  CmosSoftmaxConfig wide;
  wide.lanes = 32;
  const CmosSoftmaxUnit a(kTech, narrow);
  const CmosSoftmaxUnit b(kTech, wide);
  EXPECT_GT(a.row_latency(128).as_ns(), b.row_latency(128).as_ns());
  EXPECT_LT(a.area().as_mm2(), b.area().as_mm2());
  // Energy per row is lane-count independent (same work).
  EXPECT_NEAR(a.row_energy(128).as_nJ(), b.row_energy(128).as_nJ(), 1e-9);
}

TEST(CmosSoftmax, CostSheetConsistent) {
  const CmosSoftmaxUnit unit(kTech);
  const auto sheet = unit.cost_sheet(128);
  EXPECT_NEAR(sheet.total_area().as_mm2(), unit.area().as_mm2(),
              unit.area().as_mm2() * 0.01);
  EXPECT_GE(sheet.items().size(), 5u);
}

TEST(CmosSoftmax, RejectsBadConfig) {
  CmosSoftmaxConfig bad;
  bad.lanes = 0;
  EXPECT_THROW(CmosSoftmaxUnit(kTech, bad), InvalidArgument);
  CmosSoftmaxUnit unit(kTech);
  EXPECT_THROW(run(unit, std::vector<double>{}), InvalidArgument);
}

// ---------- Softermax ----------

TEST(Softermax, OnlineEqualsOffline) {
  SoftermaxUnit unit(kTech);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto row = random_row(rng, 48, -25.0, 10.0);
    const auto online = run(unit, row);
    const auto offline = testing_ref::softermax_offline(unit.config(), row);
    ASSERT_EQ(online.size(), offline.size());
    for (std::size_t i = 0; i < online.size(); ++i) {
      EXPECT_DOUBLE_EQ(online[i], offline[i]) << "trial " << trial << " i " << i;
    }
  }
}

TEST(Softermax, ApproximatesExactSoftmax) {
  SoftermaxUnit unit(kTech);
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    // A clear winner: Softermax's 0.25-step base-2 input grid can tie
    // near-equal maxima, which is legitimate quantisation behaviour.
    auto row = random_row(rng, 64, -12.0, 4.0);
    const std::size_t peak = static_cast<std::size_t>(rng.uniform_int(0, 63));
    row[peak] = 6.0;
    const auto exact = exact_softmax(row);
    const auto got = run(unit, row);
    // Base-2 with low-precision LUT: coarser than the baseline but usable.
    EXPECT_LT(max_abs_diff(exact, got), 0.06);
    EXPECT_EQ(argmax(exact), argmax(got));
  }
}

TEST(Softermax, NearNormalised) {
  SoftermaxUnit unit(kTech);
  Rng rng(5);
  const auto row = random_row(rng, 100, -10.0, 5.0);
  const auto p = run(unit, row);
  const double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 0.03);
}

TEST(Softermax, TwoPassLatencyBeatsBaselineThreePass) {
  const SoftermaxUnit softer(kTech);
  const CmosSoftmaxUnit base(kTech);
  EXPECT_LT(softer.row_latency(128).as_ns(), base.row_latency(128).as_ns());
}

TEST(Softermax, CostSheetAndValidation) {
  const SoftermaxUnit unit(kTech);
  EXPECT_GE(unit.cost_sheet(128).items().size(), 3u);
  SoftermaxConfig bad;
  bad.frac_bits = 1;
  EXPECT_THROW(SoftermaxUnit(kTech, bad), InvalidArgument);
}

// ---------- Table I bands (paper: area 0.33x / 0.06x; power 0.12x / 0.05x) --

class TableOneRatios : public ::testing::Test {
 protected:
  TableOneRatios()
      : base_(kTech),
        softer_(kTech),
        engine_([] {
          core::StarConfig cfg;
          cfg.softmax_format = fxp::kCnewsFormat;  // Table I: 8-bit CNEWS
          return cfg;
        }()) {}

  // Power at a common row rate (BERT-base CNEWS L=128 workload class).
  static double iso_power_mw(Energy row_energy, Power leak) {
    constexpr double kRowsPerSecond = 10e6;
    return (row_energy * kRowsPerSecond / Time::s(1.0)).as_mW() + leak.as_mW();
  }

  CmosSoftmaxUnit base_;
  SoftermaxUnit softer_;
  core::SoftmaxEngine engine_;
};

TEST_F(TableOneRatios, SoftermaxAreaRatio) {
  const double r = softer_.area() / base_.area();
  EXPECT_GT(r, 0.24);  // paper: 0.33x
  EXPECT_LT(r, 0.40);
}

TEST_F(TableOneRatios, StarAreaRatioVsBaseline) {
  const double r = engine_.area() / base_.area();
  EXPECT_GT(r, 0.03);  // paper: 0.06x
  EXPECT_LT(r, 0.08);
}

TEST_F(TableOneRatios, StarAreaRatioVsSoftermax) {
  const double r = engine_.area() / softer_.area();
  EXPECT_GT(r, 0.12);  // paper: 0.20x
  EXPECT_LT(r, 0.28);
}

TEST_F(TableOneRatios, PowerRatiosAtIsoRate) {
  const int d = 128;
  const double pb = iso_power_mw(base_.row_energy(d), base_.leakage());
  const double ps = iso_power_mw(softer_.row_energy(d), softer_.leakage());
  const double pe = iso_power_mw(engine_.row_energy(d), engine_.leakage());
  EXPECT_GT(ps / pb, 0.08);  // paper: 0.12x
  EXPECT_LT(ps / pb, 0.17);
  EXPECT_GT(pe / pb, 0.03);  // paper: 0.05x
  EXPECT_LT(pe / pb, 0.08);
  EXPECT_GT(pe / ps, 0.30);  // paper: 0.44x
  EXPECT_LT(pe / ps, 0.60);
}

}  // namespace
}  // namespace star::baseline
