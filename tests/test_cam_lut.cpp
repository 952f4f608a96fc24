// Tests for the CAM and LUT crossbars.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/cam.hpp"
#include "xbar/lut.hpp"

namespace star::xbar {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

CamCrossbar make_cam(int rows = 16, int bits = 6) {
  return CamCrossbar(kTech, RramDevice::ideal(2), rows, bits);
}

/// One search cycle's matchline vector, drawing faults from a local stream.
std::vector<bool> search(const CamCrossbar& cam, std::int64_t code, double miss_prob = 0.0) {
  Rng rng(0xCA3);
  std::vector<bool> match;
  cam.search_into(code, miss_prob, rng, match);
  return match;
}

/// Row of the first raised matchline, or -1.
int first_match(const std::vector<bool>& m) {
  for (std::size_t r = 0; r < m.size(); ++r) {
    if (m[r]) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

TEST(CamCrossbar, SearchReturnsOneHotMatch) {
  auto cam = make_cam();
  cam.store(3, 42);
  cam.store(7, 13);
  const auto m = search(cam, 42);
  int set = 0;
  for (std::size_t r = 0; r < m.size(); ++r) {
    if (m[r]) {
      ++set;
      EXPECT_EQ(r, 3u);
    }
  }
  EXPECT_EQ(set, 1);
}

TEST(CamCrossbar, NoMatchForUnstoredCode) {
  auto cam = make_cam();
  cam.store(0, 1);
  const auto m = search(cam, 2);
  for (bool b : m) {
    EXPECT_FALSE(b);
  }
  Rng rng(1);
  EXPECT_EQ(cam.search_row(2, 0.0, rng), -1);
}

TEST(CamCrossbar, SearchRowFindsRow) {
  auto cam = make_cam();
  cam.store(11, 5);
  ASSERT_TRUE(cam.unique_codes());
  Rng rng(1);
  EXPECT_EQ(cam.search_row(5, 0.0, rng), 11);
  EXPECT_EQ(first_match(search(cam, 5)), 11);
}

TEST(CamCrossbar, FillStoresSequentially) {
  auto cam = make_cam(8, 4);
  cam.fill({3, 1, 4, 1});
  EXPECT_EQ(first_match(search(cam, 3)), 0);
  EXPECT_EQ(first_match(search(cam, 4)), 2);
  // Duplicate codes match multiple rows.
  EXPECT_FALSE(cam.unique_codes());
  const auto m = search(cam, 1);
  EXPECT_TRUE(m[1]);
  EXPECT_TRUE(m[3]);
}

TEST(CamCrossbar, MissProbabilityOneDropsAll) {
  auto cam = make_cam();
  cam.store(2, 9);
  const auto m = search(cam, 9, 1.0);
  for (bool b : m) {
    EXPECT_FALSE(b);
  }
}

TEST(CamCrossbar, GeometryAndCosts) {
  const auto cam = make_cam(256, 9);
  EXPECT_EQ(cam.physical_cols(), 18);  // 2 cells per bit (paper: 256x18)
  EXPECT_GT(cam.area().as_um2(), 0.0);
  EXPECT_GT(cam.search_cost().energy_per_op.as_fJ(), 0.0);
  EXPECT_GT(cam.search_cost().latency.as_ns(), 0.0);
  EXPECT_GT(cam.program_energy().as_pJ(), 0.0);
  EXPECT_GT(cam.program_latency().as_us(), 0.0);
}

TEST(CamCrossbar, LargerCamCostsMore) {
  const auto small = make_cam(64, 8);
  const auto big = make_cam(512, 8);
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
  EXPECT_GT(big.search_cost().energy_per_op.as_fJ(),
            small.search_cost().energy_per_op.as_fJ());
}

TEST(CamCrossbar, RangeChecks) {
  auto cam = make_cam(8, 4);
  EXPECT_THROW(cam.store(8, 0), InvalidArgument);
  EXPECT_THROW(cam.store(0, 16), InvalidArgument);
  EXPECT_THROW(search(cam, 16), InvalidArgument);
  EXPECT_THROW(cam.fill(std::vector<std::int64_t>(9, 0)), InvalidArgument);
}

// ---------- LUT ----------

LutCrossbar make_lut(int rows = 16, int word_bits = 12) {
  return LutCrossbar(kTech, RramDevice::ideal(2), rows, word_bits);
}

TEST(LutCrossbar, OneHotReadReturnsWord) {
  auto lut = make_lut();
  lut.store(5, 1234);
  std::vector<bool> one_hot(16, false);
  one_hot[5] = true;
  EXPECT_EQ(lut.read(one_hot), 1234);
  EXPECT_EQ(lut.word_at(5), 1234);
}

TEST(LutCrossbar, NoWordlineReadsZero) {
  auto lut = make_lut();
  lut.store(0, 77);
  EXPECT_EQ(lut.read(std::vector<bool>(16, false)), 0);
}

TEST(LutCrossbar, NonOneHotAborts) {
  auto lut = make_lut();
  std::vector<bool> two(16, false);
  two[1] = two[2] = true;
  EXPECT_DEATH((void)lut.read(two), "one-hot");
}

TEST(LutCrossbar, FillAndRange) {
  auto lut = make_lut(4, 8);
  lut.fill({10, 20, 30});
  EXPECT_EQ(lut.word_at(1), 20);
  EXPECT_EQ(lut.word_at(3), 0);  // unfilled row
  EXPECT_THROW(lut.store(0, 256), InvalidArgument);
  EXPECT_THROW(lut.store(4, 0), InvalidArgument);
  EXPECT_THROW((void)lut.read(std::vector<bool>(3, false)), InvalidArgument);
}

TEST(LutCrossbar, CostsPositiveAndScale) {
  const auto small = make_lut(16, 8);
  const auto big = make_lut(256, 16);
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
  EXPECT_GT(small.read_cost().energy_per_op.as_fJ(), 0.0);
  EXPECT_GT(big.program_latency().as_us(), small.program_latency().as_us());
}

}  // namespace
}  // namespace star::xbar
