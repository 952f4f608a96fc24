// Unit tests for the CMOS component cost library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hw/adc.hpp"
#include "hw/component.hpp"
#include "hw/counter.hpp"
#include "hw/dac.hpp"
#include "hw/divider.hpp"
#include "hw/gates.hpp"
#include "hw/report.hpp"
#include "hw/sample_hold.hpp"
#include "hw/sense_amp.hpp"
#include "hw/shift_add.hpp"
#include "hw/sram.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::hw {
namespace {

const TechNode kTech = TechNode::n32();

TEST(TechNode, ScaledNodesAreLarger) {
  const TechNode n45 = TechNode::n45();
  const TechNode n65 = TechNode::n65();
  EXPECT_GT(n45.nand2_area_um2, kTech.nand2_area_um2);
  EXPECT_GT(n65.nand2_area_um2, n45.nand2_area_um2);
  EXPECT_GT(n65.nand2_switch_fj, kTech.nand2_switch_fj);
}

TEST(TechNode, GateEquivalentsScaleLinearly) {
  EXPECT_NEAR(kTech.ge_area(100.0).as_um2(), 10.0 * kTech.ge_area(10.0).as_um2(), 1e-9);
  EXPECT_NEAR(kTech.ge_energy(100.0).as_fJ(), 10.0 * kTech.ge_energy(10.0).as_fJ(),
              1e-9);
  EXPECT_NEAR(kTech.ge_leakage(100.0).as_uW(), 10.0 * kTech.ge_leakage(10.0).as_uW(),
              1e-9);
}

TEST(Cost, SeriesAndParallelComposition) {
  const Cost a{Area::um2(10.0), Energy::fJ(5.0), Time::ns(1.0), Power::nW(2.0)};
  const Cost b{Area::um2(20.0), Energy::fJ(3.0), Time::ns(4.0), Power::nW(1.0)};
  const Cost s = a.series_with(b);
  EXPECT_NEAR(s.latency.as_ns(), 5.0, 1e-12);
  EXPECT_NEAR(s.area.as_um2(), 30.0, 1e-12);
  const Cost p = a.parallel_with(b);
  EXPECT_NEAR(p.latency.as_ns(), 4.0, 1e-12);
  EXPECT_NEAR(p.energy_per_op.as_fJ(), 8.0, 1e-12);
}

TEST(CostSheet, AggregatesItems) {
  CostSheet sheet;
  const Cost unit{Area::um2(10.0), Energy::pJ(1.0), Time::ns(1.0), Power::uW(1.0)};
  sheet.add("adc", unit, 4.0, 2.0);
  sheet.add("driver", unit, 2.0, 1.0);
  EXPECT_NEAR(sheet.total_area().as_um2(), 60.0, 1e-9);
  EXPECT_NEAR(sheet.total_energy().as_pJ(), 10.0, 1e-9);  // 4*2 + 2*1
  EXPECT_NEAR(sheet.total_leakage().as_uW(), 6.0, 1e-9);
  sheet.set_latency(Time::ns(10.0));
  EXPECT_GT(sheet.active_power().as_mW(), 0.0);
  EXPECT_NE(sheet.breakdown().find("TOTAL"), std::string::npos);
}

// ---------- GateLibrary ----------

TEST(GateLibrary, CostsGrowWithWidth) {
  const GateLibrary lib(kTech);
  EXPECT_GT(lib.adder(32).area.as_um2(), lib.adder(8).area.as_um2());
  EXPECT_GT(lib.divider(24).energy_per_op.as_pJ(), lib.divider(8).energy_per_op.as_pJ());
  EXPECT_GT(lib.multiplier(16, 16).area.as_um2(), lib.multiplier(8, 8).area.as_um2());
  EXPECT_GT(lib.exp_unit(24).energy_per_op.as_pJ(), lib.exp_unit(12).energy_per_op.as_pJ());
}

TEST(GateLibrary, DividerLatencyIsBitsCycles) {
  const GateLibrary lib(kTech);
  EXPECT_NEAR(lib.divider(16).latency.as_ns(), 16.0 / kTech.clock_ghz, 1e-9);
}

TEST(GateLibrary, RejectsBadWidths) {
  const GateLibrary lib(kTech);
  EXPECT_THROW((void)lib.adder(0), InvalidArgument);
  EXPECT_THROW((void)lib.or_tree(0), InvalidArgument);
}

// ---------- ADC ----------

TEST(SarAdc, AreaAndEnergyGrowWithBits) {
  double prev_area = 0.0, prev_energy = 0.0;
  for (int b = 2; b <= 8; ++b) {
    const SarAdc adc(kTech, b);
    EXPECT_GT(adc.cost().area.as_um2(), prev_area);
    EXPECT_GT(adc.cost().energy_per_op.as_fJ(), prev_energy);
    prev_area = adc.cost().area.as_um2();
    prev_energy = adc.cost().energy_per_op.as_fJ();
  }
}

TEST(SarAdc, LatencyIsBitsOverRate) {
  const SarAdc adc(kTech, 5, 1.0);
  EXPECT_NEAR(adc.cost().latency.as_ns(), 5.0, 1e-9);
}

TEST(SarAdc, QuantizeMapsFullScale) {
  const SarAdc adc(kTech, 5);
  EXPECT_EQ(adc.quantize(0.0, 1.0), 0);
  EXPECT_EQ(adc.quantize(1.0, 1.0), 31);
  EXPECT_EQ(adc.quantize(2.0, 1.0), 31);  // clips
  EXPECT_EQ(adc.quantize(0.5, 1.0), 16);
}

TEST(SarAdc, RejectsBadConfig) {
  EXPECT_THROW(SarAdc(kTech, 0), InvalidArgument);
  EXPECT_THROW(SarAdc(kTech, 13), InvalidArgument);
}

// ---------- drivers / analog front end ----------

TEST(RowDriver, MultiBitCostsMore) {
  const RowDriver d1(kTech, 1);
  const RowDriver d4(kTech, 4);
  EXPECT_GT(d4.cost().area.as_um2(), d1.cost().area.as_um2());
  EXPECT_GT(d4.cost().energy_per_op.as_fJ(), d1.cost().energy_per_op.as_fJ());
}

TEST(AnalogFrontEnd, PositiveCosts) {
  const SenseAmp sa(kTech);
  const SampleHold sh(kTech);
  EXPECT_GT(sa.cost().area.as_um2(), 0.0);
  EXPECT_GT(sa.cost().energy_per_op.as_fJ(), 0.0);
  EXPECT_GT(sh.cost().latency.as_ns(), 0.0);
}

// ---------- shift-add ----------

TEST(ShiftAdd, CombineMatchesWeightedSum) {
  // partial sums p_b (LSB first): sum_b p_b << b
  EXPECT_EQ(ShiftAdd::combine({1, 1, 1}), 7);
  EXPECT_EQ(ShiftAdd::combine({5, 0, 2}), 13);
  EXPECT_EQ(ShiftAdd::combine({}), 0);
}

TEST(ShiftAdd, CostScalesWithWidth) {
  const ShiftAdd a(kTech, 8), b(kTech, 32);
  EXPECT_GT(b.cost().area.as_um2(), a.cost().area.as_um2());
}

// ---------- counters ----------

TEST(CounterArray, AccumulatesHistogram) {
  CounterArray counters(kTech, 4, 8);
  std::vector<bool> hit1{false, true, false, false};
  std::vector<bool> hit3{false, false, false, true};
  counters.accumulate(hit1);
  counters.accumulate(hit1);
  counters.accumulate(hit3);
  counters.accumulate(std::vector<bool>(4, false));  // no match: holds
  EXPECT_EQ(counters.counts(), (std::vector<std::int64_t>{0, 2, 0, 1}));
  counters.reset();
  EXPECT_EQ(counters.counts(), (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(CounterArray, SaturatesAtWidth) {
  CounterArray counters(kTech, 1, 2);  // max count 3
  const std::vector<bool> hit{true};
  for (int i = 0; i < 10; ++i) {
    counters.accumulate(hit);
  }
  EXPECT_EQ(counters.counts()[0], 3);
}

TEST(CounterArray, RejectsNonOneHot) {
  CounterArray counters(kTech, 2, 4);
  EXPECT_DEATH(counters.accumulate({true, true}), "one-hot");
}

// ---------- divider ----------

TEST(Divider, FloorSemantics) {
  const Divider div(kTech, 16);
  EXPECT_EQ(div.divide(1, 2, 4), 8);       // 0.5 * 16
  EXPECT_EQ(div.divide(1, 3, 4), 5);       // floor(16/3)
  EXPECT_EQ(div.divide(7, 7, 4), 16);      // exactly 1.0
  EXPECT_EQ(div.divide(0, 9, 8), 0);
}

TEST(Divider, DivideByZeroSaturates) {
  const Divider div(kTech, 8);
  EXPECT_EQ(div.divide(5, 0, 4), 255);
}

TEST(Divider, NarrowCostVariantIsCheaper) {
  const Divider wide(kTech, 24);
  const Divider normalized(kTech, 24, 9);
  EXPECT_LT(normalized.cost().area.as_um2(), wide.cost().area.as_um2());
  EXPECT_LT(normalized.cost().energy_per_op.as_pJ(),
            wide.cost().energy_per_op.as_pJ());
  // Functional behaviour identical.
  EXPECT_EQ(normalized.divide(1, 3, 4), wide.divide(1, 3, 4));
}

TEST(Divider, RejectsNegativeOperands) {
  const Divider div(kTech, 8);
  EXPECT_THROW((void)div.divide(-1, 2, 4), InvalidArgument);
  std::vector<std::int64_t> out(2);
  EXPECT_THROW(div.divide_row(std::vector<std::int64_t>{3, -1}, 2, 4, out),
               InvalidArgument);
  EXPECT_THROW(div.divide_row(std::vector<std::int64_t>{3, 1}, -2, 4, out),
               InvalidArgument);
}

TEST(Divider, DivideRowIsDividePerElement) {
  const Divider div(kTech, 8);
  std::vector<std::int64_t> out(4);
  div.divide_row(std::vector<std::int64_t>{0, 1, 3, 7}, 3, 4, out);
  EXPECT_EQ(out, (std::vector<std::int64_t>{div.divide(0, 3, 4), div.divide(1, 3, 4),
                                            div.divide(3, 3, 4), div.divide(7, 3, 4)}));
  // Quotients 254, 255 (the top code), 256 and far above it.
  div.divide_row(std::vector<std::int64_t>{254, 255, 256, 1 << 20}, 1, 0, out);
  EXPECT_EQ(out, (std::vector<std::int64_t>{254, 255, 255, 255}));
  div.divide_row(std::vector<std::int64_t>{509, 510, 511, 512}, 2, 0, out);
  EXPECT_EQ(out, (std::vector<std::int64_t>{254, 255, 255, 255}));
  // den == 0 saturates every element, zero numerators included.
  div.divide_row(std::vector<std::int64_t>{0, 1, 7, 255}, 0, 4, out);
  EXPECT_EQ(out, (std::vector<std::int64_t>(4, 255)));
}

TEST(Divider, DivideRowMatchesIntegerQuotientOnBothOperandRanges) {
  // divide_row divides in double precision while every shifted operand is
  // below 2^53 and in integer arithmetic otherwise; both must equal the
  // per-element integer quotient, including numerators one below a
  // multiple of den (where a rounded-up double quotient would show).
  const Divider div(kTech, 31);
  Rng rng(17);
  std::vector<std::int64_t> nums(64);
  std::vector<std::int64_t> out(nums.size());
  for (int trial = 0; trial < 200; ++trial) {
    const int frac = static_cast<int>(rng.uniform_int(0, 20));
    const std::int64_t den = rng.uniform_int(1, std::int64_t{1} << 32);
    for (std::size_t i = 0; i < nums.size(); ++i) {
      const std::int64_t k = rng.uniform_int(0, 1 << 10);
      nums[i] = i % 2 == 0 ? std::max<std::int64_t>(k * den - 1, 0) >> frac
                           : rng.uniform_int(0, std::int64_t{1} << 16);
    }
    if (trial % 4 == 0) {
      nums[5] = (std::int64_t{1} << 53) >> frac;  // pushes the row to integers
    }
    div.divide_row(nums, den, frac, out);
    for (std::size_t i = 0; i < nums.size(); ++i) {
      ASSERT_EQ(out[i], div.divide(nums[i], den, frac))
          << "trial " << trial << " num " << nums[i] << " den " << den;
    }
  }
}

// ---------- SRAM ----------

TEST(Sram, AreaGrowsWithCapacity) {
  const Sram small(kTech, 1024.0);
  const Sram big(kTech, 16384.0);
  EXPECT_GT(big.cost().area.as_um2(), small.cost().area.as_um2());
  EXPECT_GT(big.cost().energy_per_op.as_pJ(), small.cost().energy_per_op.as_pJ());
}

// ---------- RunReport ----------

TEST(RunReport, EfficiencyMetric) {
  RunReport rep;
  rep.engine_name = "test";
  rep.total_ops = 1e9;
  rep.latency = Time::ms(1.0);
  rep.avg_power = Power::W(2.0);
  EXPECT_NEAR(rep.gops(), 1000.0, 1e-9);
  EXPECT_NEAR(rep.gops_per_watt(), 500.0, 1e-9);
  EXPECT_NE(rep.summary().find("GOPs/s/W"), std::string::npos);
}

TEST(RunReport, RatioGuardsZero) {
  RunReport a, b;
  a.total_ops = 1e9;
  a.latency = Time::ms(1.0);
  a.avg_power = Power::W(1.0);
  EXPECT_DOUBLE_EQ(efficiency_ratio(a, b), 0.0);
}

}  // namespace
}  // namespace star::hw
