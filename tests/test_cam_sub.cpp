// Tests for the CAM/SUB crossbar (paper Fig. 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/cam_sub.hpp"

namespace star::xbar {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

CamSubCrossbar make_camsub(int bits = 6) {
  return CamSubCrossbar(kTech, RramDevice::ideal(2), bits);
}

/// Phase A on a local fault stream (no draws when miss_prob == 0).
MaxFindResult find_max(const CamSubCrossbar& cs, std::span<const std::int64_t> codes,
                       double miss_prob = 0.0) {
  Rng rng(0xCA5B);
  MaxFindResult res;
  cs.find_max_into(codes, miss_prob, rng, res);
  return res;
}

/// Phase B into a new vector.
std::vector<std::int64_t> subtract(const CamSubCrossbar& cs, const MaxFindResult& mf,
                                   std::span<const std::int64_t> codes) {
  std::vector<std::int64_t> out(codes.size());
  cs.subtract_into(mf, codes, out);
  return out;
}

TEST(CamSub, GeometryMatchesPaper) {
  // 9-bit operands -> 512 x 18 (paper Section III).
  const auto cs = CamSubCrossbar(kTech, RramDevice::ideal(2), 9);
  EXPECT_EQ(cs.rows(), 512);
  EXPECT_EQ(cs.physical_cols(), 18);
}

TEST(CamSub, DescendingPreloadInvariant) {
  const auto cs = make_camsub(5);
  for (int r = 1; r < cs.rows(); ++r) {
    EXPECT_LT(cs.code_at(r), cs.code_at(r - 1));
  }
  EXPECT_EQ(cs.code_at(0), cs.rows() - 1);
  EXPECT_EQ(cs.code_at(cs.rows() - 1), 0);
  for (std::int64_t c = 0; c < cs.rows(); ++c) {
    EXPECT_EQ(cs.code_at(cs.row_of(c)), c);
  }
}

TEST(CamSub, FindMaxWalkthroughFromFigure1) {
  // The paper's 4-input example: searches merge onto matchlines and the
  // first set line (descending order) is the maximum.
  auto cs = make_camsub(4);
  const std::vector<std::int64_t> xs{3, 9, 7, 9};
  const auto mf = find_max(cs, xs);
  EXPECT_EQ(mf.max_code, 9);
  EXPECT_EQ(mf.max_row, cs.row_of(9));
  // Merged matchlines contain exactly the distinct input values.
  int set = 0;
  for (int r = 0; r < cs.rows(); ++r) {
    if (mf.merged_matchlines[static_cast<std::size_t>(r)]) {
      ++set;
      const auto code = cs.code_at(r);
      EXPECT_TRUE(code == 3 || code == 9 || code == 7);
    }
  }
  EXPECT_EQ(set, 3);
}

TEST(CamSub, FindMaxMatchesStdMaxElement) {
  auto cs = make_camsub(8);
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<std::int64_t> xs(n);
    for (auto& x : xs) {
      x = rng.uniform_int(0, 255);
    }
    const auto mf = find_max(cs, xs);
    EXPECT_EQ(mf.max_code, *std::max_element(xs.begin(), xs.end()));
  }
}

TEST(CamSub, SubtractAllProducesNonPositiveDiffs) {
  auto cs = make_camsub(8);
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::int64_t> xs(32);
    for (auto& x : xs) {
      x = rng.uniform_int(0, 255);
    }
    const auto mf = find_max(cs, xs);
    const auto diffs = subtract(cs, mf, xs);
    const auto mx = *std::max_element(xs.begin(), xs.end());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(diffs[i], xs[i] - mx);
      EXPECT_LE(diffs[i], 0);
    }
  }
}

TEST(CamSub, InputRowsTrackMatchedRows) {
  auto cs = make_camsub(5);
  const std::vector<std::int64_t> xs{0, 31, 15};
  const auto mf = find_max(cs, xs);
  ASSERT_EQ(mf.input_rows.size(), 3u);
  EXPECT_EQ(cs.code_at(mf.input_rows[0]), 0);
  EXPECT_EQ(cs.code_at(mf.input_rows[1]), 31);
  EXPECT_EQ(cs.code_at(mf.input_rows[2]), 15);
}

// Dense-scan reference for find_max_into: every search scans all rows of
// the descending preload, draws one fault sample per matching row, ORs the
// matchlines and priority-encodes the first set line.
MaxFindResult dense_find_max(const CamSubCrossbar& cs,
                             const std::vector<std::int64_t>& codes, double miss,
                             Rng& rng) {
  MaxFindResult res;
  res.merged_matchlines.assign(static_cast<std::size_t>(cs.rows()), false);
  for (const std::int64_t code : codes) {
    int matched = -1;
    for (int r = 0; r < cs.rows(); ++r) {
      if (cs.code_at(r) == code) {
        const bool sensed = miss <= 0.0 || !rng.bernoulli(miss);
        if (sensed) {
          res.merged_matchlines[static_cast<std::size_t>(r)] = true;
          matched = r;
        }
      }
    }
    res.misses += matched < 0 ? 1 : 0;
    res.input_rows.push_back(matched);
  }
  for (int r = 0; r < cs.rows(); ++r) {
    if (res.merged_matchlines[static_cast<std::size_t>(r)]) {
      res.max_row = r;
      res.max_code = cs.code_at(r);
      break;
    }
  }
  return res;
}

TEST(CamSub, FindMaxIntoMatchesDenseScanUnderFaults) {
  const auto cs = make_camsub(9);
  Rng data(0xD5);
  Rng fast_rng(77);
  Rng dense_rng(77);
  MaxFindResult got;  // reused across rows, as the engine does
  int rows_with_misses = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto d = static_cast<std::size_t>(data.uniform_int(1, 300));
    std::vector<std::int64_t> codes(d);
    for (auto& c : codes) {
      c = data.uniform_int(0, cs.rows() - 1);
    }
    const double miss = trial % 4 == 0 ? 0.0 : 0.05;
    const auto want = dense_find_max(cs, codes, miss, dense_rng);
    if (want.max_row < 0) {
      // A short row can lose every search: the encoder has nothing to pick.
      EXPECT_THROW(cs.find_max_into(codes, miss, fast_rng, got), SimulationError);
    } else {
      cs.find_max_into(codes, miss, fast_rng, got);
    }
    EXPECT_EQ(got.max_row, want.max_row) << "trial " << trial;
    EXPECT_EQ(got.max_code, want.max_code) << "trial " << trial;
    EXPECT_EQ(got.merged_matchlines, want.merged_matchlines) << "trial " << trial;
    EXPECT_EQ(got.input_rows, want.input_rows) << "trial " << trial;
    EXPECT_EQ(got.misses, want.misses) << "trial " << trial;
    rows_with_misses += want.misses > 0 ? 1 : 0;
  }
  EXPECT_GT(rows_with_misses, 50);
  // Same number of fault draws consumed: the streams are still in step.
  EXPECT_EQ(fast_rng(), dense_rng());
}

TEST(CamSub, FindMaxIntoThrowsWhenEverySearchMisses) {
  const auto cs = make_camsub(6);
  const std::vector<std::int64_t> codes = {3, 17, 42};
  Rng rng(5);
  Rng dense_rng(5);
  MaxFindResult res;
  EXPECT_THROW(cs.find_max_into(codes, 1.0, rng, res), SimulationError);
  // The reference agrees nothing matched, and both drew one sample per input.
  EXPECT_EQ(dense_find_max(cs, codes, 1.0, dense_rng).max_row, -1);
  EXPECT_EQ(res.misses, 3);
  EXPECT_EQ(res.max_row, -1);
  EXPECT_EQ(rng(), dense_rng());
}

TEST(CamSub, CostsGrowWithInputCount) {
  const auto cs = make_camsub(8);
  EXPECT_GT(cs.maxfind_energy(128).as_pJ(), cs.maxfind_energy(16).as_pJ());
  EXPECT_GT(cs.maxfind_latency(128).as_ns(), cs.maxfind_latency(16).as_ns());
  EXPECT_GT(cs.subtract_energy(128).as_pJ(), cs.subtract_energy(16).as_pJ());
  EXPECT_GT(cs.subtract_latency(128).as_ns(), cs.subtract_latency(16).as_ns());
  EXPECT_GT(cs.area().as_um2(), 0.0);
  EXPECT_GT(cs.program_energy().as_nJ(), 0.0);
}

TEST(CamSub, SubtractRequiresMatchingFindMax) {
  auto cs = make_camsub(4);
  const std::vector<std::int64_t> xs{1, 2, 3};
  const auto mf = find_max(cs, xs);
  const std::vector<std::int64_t> other{1, 2};
  EXPECT_THROW(subtract(cs, mf, other), InvalidArgument);
}

TEST(CamSub, RejectsBadArguments) {
  EXPECT_THROW(make_camsub(1), InvalidArgument);
  EXPECT_THROW(make_camsub(13), InvalidArgument);
  auto cs = make_camsub(4);
  EXPECT_THROW((void)find_max(cs, std::vector<std::int64_t>{}), InvalidArgument);
  EXPECT_THROW((void)find_max(cs, std::vector<std::int64_t>{16}), InvalidArgument);
  EXPECT_THROW((void)cs.maxfind_energy(0), InvalidArgument);
}

// Property sweep over operand widths: max-find correct at every width.
class CamSubWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(CamSubWidthSweep, MaxFindCorrectAcrossWidths) {
  const int bits = GetParam();
  auto cs = make_camsub(bits);
  Rng rng(100 + bits);
  const std::int64_t top = (1 << bits) - 1;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> xs(16);
    for (auto& x : xs) {
      x = rng.uniform_int(0, top);
    }
    const auto mf = find_max(cs, xs);
    EXPECT_EQ(mf.max_code, *std::max_element(xs.begin(), xs.end()));
    const auto diffs = subtract(cs, mf, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(diffs[i], xs[i] - mf.max_code);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CamSubWidthSweep, ::testing::Values(2, 4, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace star::xbar
