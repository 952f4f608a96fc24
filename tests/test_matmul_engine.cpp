// Tests for the crossbar MatMul engine (functional and analytic faces),
// including the golden-file regressions pinning MappingCost / MatmulCost
// on the paper's BERT-base geometries (tests/golden/matmul_costs.csv):
// a cost-model refactor that drifts Fig. 3 now fails here, exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/matmul_engine.hpp"
#include "support/encoder_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::core {
namespace {

StarConfig default_cfg() { return StarConfig{}; }

TEST(MatmulEngine, TileGeometryFromConfig) {
  const MatmulEngine eng(default_cfg());
  EXPECT_EQ(eng.tile_rows(), 128);
  // 8-bit weights on 2-bit cells -> 4 slices -> 32 logical columns.
  EXPECT_EQ(eng.tile_logical_cols(), 32);
  EXPECT_GT(eng.tile_latency().as_ns(), 0.0);
  EXPECT_GT(eng.tile_energy(128).as_pJ(), eng.tile_energy(16).as_pJ());
}

TEST(MatmulEngine, FunctionalMultiplyTracksExact) {
  MatmulEngine eng(default_cfg());
  Rng rng(1);
  const auto x = nn::Tensor::randn(8, 48, rng);
  const auto w = nn::Tensor::randn(48, 24, rng);
  const auto exact = testing_ref::matmul(x, w);
  const auto got = eng.multiply(x, w);
  ASSERT_EQ(got.rows(), exact.rows());
  ASSERT_EQ(got.cols(), exact.cols());

  // Quantisation-aware accuracy: high cosine similarity and bounded RMS.
  const double cos = cosine_similarity(exact.flat(), got.flat());
  EXPECT_GT(cos, 0.98);
  const double rms = rms_diff(exact.flat(), got.flat());
  const double scale = stddev(exact.flat());
  EXPECT_LT(rms, 0.25 * scale);
}

TEST(MatmulEngine, MultiplySpansMultipleTiles) {
  MatmulEngine eng(default_cfg());
  Rng rng(2);
  // 160 inner dim -> 2 row stripes; 40 cols -> 2 col stripes.
  const auto x = nn::Tensor::randn(4, 160, rng);
  const auto w = nn::Tensor::randn(160, 40, rng);
  const auto exact = testing_ref::matmul(x, w);
  const auto got = eng.multiply(x, w);
  EXPECT_GT(cosine_similarity(exact.flat(), got.flat()), 0.97);
}

TEST(MatmulEngine, MultiplyShapeChecked) {
  MatmulEngine eng(default_cfg());
  Rng rng(3);
  const auto x = nn::Tensor::randn(4, 8, rng);
  const auto w = nn::Tensor::randn(9, 4, rng);
  EXPECT_THROW(eng.multiply(x, w), InvalidArgument);
}

TEST(MatmulEngine, StreamCostStaticBasics) {
  const MatmulEngine eng(default_cfg());
  const auto c = eng.stream_cost(128, 768, 768, false);
  EXPECT_EQ(c.tiles, 144);          // 6 x 24 grid
  EXPECT_EQ(c.tile_ops, 128 * 144);
  EXPECT_DOUBLE_EQ(c.macs, 128.0 * 768.0 * 768.0);
  EXPECT_DOUBLE_EQ(c.write_energy.as_J(), 0.0);
  EXPECT_NEAR(c.latency.as_ns(), c.row_service.as_ns() * 128.0, 1e-6);
  EXPECT_GT(c.energy.as_uJ(), 0.0);
}

TEST(MatmulEngine, DynamicMatrixPaysWrites) {
  const MatmulEngine eng(default_cfg());
  const auto stat = eng.stream_cost(128, 64, 128, false);
  const auto dyn = eng.stream_cost(128, 64, 128, true);
  EXPECT_GT(dyn.write_energy.as_nJ(), 0.0);
  EXPECT_GT(dyn.write_latency.as_ns(), 0.0);
  EXPECT_GT(dyn.latency.as_ns(), stat.latency.as_ns());
  EXPECT_NEAR(dyn.energy.as_J(), stat.energy.as_J(), 1e-18);
}

TEST(MatmulEngine, LatencyScalesWithBatch) {
  const MatmulEngine eng(default_cfg());
  const auto a = eng.stream_cost(64, 768, 768, false);
  const auto b = eng.stream_cost(128, 768, 768, false);
  EXPECT_NEAR(b.latency.as_ns(), 2.0 * a.latency.as_ns(), 1e-6);
  EXPECT_NEAR(b.energy.as_J(), 2.0 * a.energy.as_J(), 1e-15);
}

TEST(MatmulEngine, AreaAndLeakageScaleWithTiles) {
  const MatmulEngine eng(default_cfg());
  EXPECT_NEAR(eng.area_for_tiles(10).as_mm2(), 10.0 * eng.area_for_tiles(1).as_mm2(),
              1e-12);
  EXPECT_GT(eng.leakage_for_tiles(100).as_mW(), 0.0);
}

TEST(MatmulEngine, RejectsBadDims) {
  const MatmulEngine eng(default_cfg());
  EXPECT_THROW((void)eng.stream_cost(0, 768, 768, false), InvalidArgument);
}

// ---------- golden-file regressions (exact, not approximate) ----------

struct GoldenRow {
  std::string name;
  std::int64_t b = 0, m = 0, n = 0;
  bool dynamic = false;
  std::int64_t row_tiles = 0, col_tiles = 0, vmm_invocations = 0, cell_writes = 0;
  double mac_ops = 0.0;
  double latency_ns = 0.0, row_service_ns = 0.0;
  double energy_pj = 0.0, write_energy_pj = 0.0, write_latency_ns = 0.0;
  std::int64_t tile_ops = 0;
};

/// Parse tests/golden/matmul_costs.csv. Doubles are written with 17
/// significant digits, so strtod round-trips the exact bits the model
/// produced when the golden was recorded.
std::vector<GoldenRow> load_golden() {
  const std::string path = std::string(STAR_TEST_GOLDEN_DIR) + "/matmul_costs.csv";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::vector<GoldenRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::stringstream ss(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(ss, cell, ',')) {
      cells.push_back(cell);
    }
    EXPECT_EQ(cells.size(), 16u) << "malformed golden row: " << line;
    if (cells.size() != 16u) {
      continue;  // recorded as a failure above; don't index out of bounds
    }
    GoldenRow r;
    r.name = cells[0];
    r.b = std::atoll(cells[1].c_str());
    r.m = std::atoll(cells[2].c_str());
    r.n = std::atoll(cells[3].c_str());
    r.dynamic = cells[4] == "1";
    r.row_tiles = std::atoll(cells[5].c_str());
    r.col_tiles = std::atoll(cells[6].c_str());
    r.vmm_invocations = std::atoll(cells[7].c_str());
    r.cell_writes = std::atoll(cells[8].c_str());
    r.mac_ops = std::strtod(cells[9].c_str(), nullptr);
    r.latency_ns = std::strtod(cells[10].c_str(), nullptr);
    r.row_service_ns = std::strtod(cells[11].c_str(), nullptr);
    r.energy_pj = std::strtod(cells[12].c_str(), nullptr);
    r.write_energy_pj = std::strtod(cells[13].c_str(), nullptr);
    r.write_latency_ns = std::strtod(cells[14].c_str(), nullptr);
    r.tile_ops = std::atoll(cells[15].c_str());
    rows.push_back(r);
  }
  return rows;
}

TEST(MatmulEngineGolden, MappingCostsMatchGoldenExactly) {
  const MatmulEngine eng(default_cfg());
  const xbar::Mapper& mapper = eng.mapper();
  const auto rows = load_golden();
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    const xbar::MappingCost mc = r.dynamic ? mapper.map_dynamic(r.b, r.m, r.n)
                                           : mapper.map_static(r.b, r.m, r.n);
    EXPECT_EQ(mc.grid.row_tiles, r.row_tiles) << r.name;
    EXPECT_EQ(mc.grid.col_tiles, r.col_tiles) << r.name;
    EXPECT_EQ(mc.vmm_invocations, r.vmm_invocations) << r.name;
    EXPECT_EQ(mc.cell_writes, r.cell_writes) << r.name;
    EXPECT_EQ(mc.mac_ops, r.mac_ops) << r.name;  // exact doubles
  }
}

TEST(MatmulEngineGolden, StreamCostsMatchGoldenExactly) {
  const MatmulEngine eng(default_cfg());
  const auto rows = load_golden();
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    const MatmulCost c = eng.stream_cost(r.b, r.m, r.n, r.dynamic);
    // Exact double equality: the golden records the bits the paper-scale
    // calibration produced, so any silent cost-model drift fails here.
    EXPECT_EQ(c.latency.as_ns(), r.latency_ns) << r.name;
    EXPECT_EQ(c.row_service.as_ns(), r.row_service_ns) << r.name;
    EXPECT_EQ(c.energy.as_pJ(), r.energy_pj) << r.name;
    EXPECT_EQ(c.write_energy.as_pJ(), r.write_energy_pj) << r.name;
    EXPECT_EQ(c.write_latency.as_ns(), r.write_latency_ns) << r.name;
    EXPECT_EQ(c.tile_ops, r.tile_ops) << r.name;
    EXPECT_EQ(c.macs, r.mac_ops) << r.name;
  }
}

}  // namespace
}  // namespace star::core
