// Tests for the generic stage-pipeline simulator and statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/pipeline_sim.hpp"
#include "sim/stats.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::sim {
namespace {

std::vector<Stage> three_stages() {
  return {Stage{"a", Time::ns(10.0)}, Stage{"b", Time::ns(30.0)},
          Stage{"c", Time::ns(20.0)}};
}

TEST(PipelineSim, SingleItemIsSumOfServices) {
  const auto res = simulate(three_stages(), 1, Discipline::kItemGranular);
  EXPECT_NEAR(res.makespan.as_ns(), 60.0, 1e-9);
}

TEST(PipelineSim, ItemGranularMatchesClosedForm) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 333u}) {
    const auto res = simulate(three_stages(), n, Discipline::kItemGranular);
    const Time cf = closed_form_makespan(three_stages(), n, Discipline::kItemGranular);
    EXPECT_NEAR(res.makespan.as_ns(), cf.as_ns(), 1e-6) << "n=" << n;
  }
}

TEST(PipelineSim, BarrierMatchesClosedForm) {
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    const auto res = simulate(three_stages(), n, Discipline::kBarrier);
    const Time cf = closed_form_makespan(three_stages(), n, Discipline::kBarrier);
    EXPECT_NEAR(res.makespan.as_ns(), cf.as_ns(), 1e-6) << "n=" << n;
  }
}

TEST(PipelineSim, ItemGranularNeverSlowerThanBarrier) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Stage> stages;
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (int s = 0; s < k; ++s) {
      stages.push_back(Stage{"s", Time::ns(rng.uniform(1.0, 100.0))});
    }
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 50));
    const auto fast = simulate(stages, n, Discipline::kItemGranular);
    const auto slow = simulate(stages, n, Discipline::kBarrier);
    EXPECT_LE(fast.makespan.as_ns(), slow.makespan.as_ns() + 1e-9);
  }
}

TEST(PipelineSim, CompletionTimesMonotonic) {
  const auto res = simulate(three_stages(), 10, Discipline::kItemGranular);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t s = 1; s < 3; ++s) {
      EXPECT_GT(res.completion[i][s], res.completion[i][s - 1]);
    }
    if (i > 0) {
      EXPECT_GT(res.completion[i][2], res.completion[i - 1][2]);
    }
  }
}

TEST(PipelineSim, BottleneckUtilApproachesOne) {
  const auto res = simulate(three_stages(), 1000, Discipline::kItemGranular);
  EXPECT_GT(res.bottleneck_util(), 0.95);
  EXPECT_LE(res.bottleneck_util(), 1.0 + 1e-9);
}

TEST(PipelineSim, HeterogeneousServiceScales) {
  const std::vector<double> scale{1.0, 2.0, 1.0};
  const auto res = simulate({Stage{"a", Time::ns(10.0)}}, 3,
                            Discipline::kItemGranular, scale);
  EXPECT_NEAR(res.makespan.as_ns(), 40.0, 1e-9);  // 10 + 20 + 10
}

TEST(PipelineSim, ZeroItems) {
  const auto res = simulate(three_stages(), 0, Discipline::kItemGranular);
  EXPECT_DOUBLE_EQ(res.makespan.as_s(), 0.0);
}

TEST(PipelineSim, RejectsBadArguments) {
  EXPECT_THROW(simulate({}, 5, Discipline::kItemGranular), InvalidArgument);
  EXPECT_THROW(simulate(three_stages(), 5, Discipline::kItemGranular, {1.0}),
               InvalidArgument);
}

// ---------- stats ----------

TEST(Histogram, QuantilesOfUniform) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(12);
  for (int i = 0; i < 100000; ++i) {
    h.add(rng.uniform());
  }
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_EQ(h.total(), 100000u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 10);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) {
    h.add(0.55);
  }
  const std::string s = h.ascii(20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_NE(s.find('@'), std::string::npos);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 0.0, 10), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

// Parameterized cross-check: closed form == simulation for many shapes.
class ClosedFormSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ClosedFormSweep, SimulationMatches) {
  const auto [k, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Stage> stages;
  for (int s = 0; s < k; ++s) {
    stages.push_back(Stage{"s", Time::ns(rng.uniform(1.0, 50.0))});
  }
  for (auto d : {Discipline::kItemGranular, Discipline::kBarrier}) {
    const auto sim_res = simulate(stages, static_cast<std::size_t>(n), d);
    const auto cf = closed_form_makespan(stages, static_cast<std::size_t>(n), d);
    EXPECT_NEAR(sim_res.makespan.as_ns(), cf.as_ns(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClosedFormSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), ::testing::Values(1, 16, 128),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace star::sim
