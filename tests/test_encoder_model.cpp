// Tests for the full-encoder extension model and the CAM fault-injection
// path it shares a release with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoder_model.hpp"
#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/dataset_profile.hpp"
#include "xbar/cam_sub.hpp"

namespace star::core {
namespace {

StarConfig nine_bit_cfg() {
  StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::base();

// ---------- encoder model ----------

TEST(EncoderModel, LayerExtendsAttention) {
  const EncoderModel model(nine_bit_cfg());
  const auto res = model.run_encoder_layer(kBert, 128);
  EXPECT_GT(res.latency.as_us(), res.attention.latency.as_us());
  EXPECT_GT(res.energy.as_J(), res.attention.energy.as_J());
  EXPECT_GT(res.ffn_latency.as_us(), 0.0);
  EXPECT_GT(res.ffn_energy.as_uJ(), 0.0);
  EXPECT_GT(res.vector_unit_energy.as_nJ(), 0.0);
}

TEST(EncoderModel, TimeShareConstantEnergyShareGrows) {
  const EncoderModel model(nine_bit_cfg());
  // Latency is row-throughput bound on both sides (the L^2 score/context
  // work is absorbed by column-parallel tiles), so the attention *time*
  // share stays near one half; the L^2 terms surface in *energy*, whose
  // attention share must grow with L.
  double prev_energy_share = 0.0;
  for (std::int64_t l : {64, 128, 256, 512}) {
    const auto res = model.run_encoder_layer(kBert, l);
    EXPECT_GT(res.attention_time_share, 0.40) << "L=" << l;
    EXPECT_LT(res.attention_time_share, 0.60) << "L=" << l;
    const double energy_share = res.attention.energy.as_J() / res.energy.as_J();
    EXPECT_GT(energy_share, prev_energy_share) << "L=" << l;
    prev_energy_share = energy_share;
  }
}

TEST(EncoderModel, OpsIncludeFfn) {
  const EncoderModel model(nine_bit_cfg());
  const auto enc = model.run_encoder_layer(kBert, 128);
  const auto attn = model.accelerator().run_attention_layer(kBert, 128);
  // FFN macs = 2 * L * d * d_ff, counted at 2 ops/mac.
  const double ffn_ops = 2.0 * 2.0 * 128.0 * 768.0 * 3072.0;
  EXPECT_GT(enc.report.total_ops, attn.report.total_ops + ffn_ops * 0.99);
}

TEST(EncoderModel, EfficiencyInPlausibleBand) {
  const EncoderModel model(nine_bit_cfg());
  const auto res = model.run_encoder_layer(kBert, 128);
  // FFN adds matmul-dominated work at similar efficiency: layer-level
  // GOPs/s/W stays within a factor ~2 of the attention-only figure.
  const auto attn = model.accelerator().run_attention_layer(kBert, 128);
  const double ratio = res.report.gops_per_watt() / attn.report.gops_per_watt();
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(EncoderModel, RejectsBadSeqLen) {
  const EncoderModel model(nine_bit_cfg());
  EXPECT_THROW(model.run_encoder_layer(kBert, 1), InvalidArgument);
}

// ---------- CAM fault injection ----------

/// Phase A on a local fault stream.
xbar::MaxFindResult find_max(const xbar::CamSubCrossbar& cs,
                             std::span<const std::int64_t> codes, double miss_prob) {
  Rng rng(0xCA5B);
  xbar::MaxFindResult res;
  cs.find_max_into(codes, miss_prob, rng, res);
  return res;
}

/// Phase B into a new vector.
std::vector<std::int64_t> subtract(const xbar::CamSubCrossbar& cs,
                                   const xbar::MaxFindResult& mf,
                                   std::span<const std::int64_t> codes) {
  std::vector<std::int64_t> out(codes.size());
  cs.subtract_into(mf, codes, out);
  return out;
}


TEST(FaultInjection, MissProbZeroIsFaultFree) {
  xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 8);
  const std::vector<std::int64_t> xs{10, 250, 100};
  const auto mf = find_max(cs, xs, 0.0);
  EXPECT_EQ(mf.misses, 0);
  EXPECT_EQ(mf.max_code, 250);
}

TEST(FaultInjection, MissedInputsReadAsUnderflow) {
  xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 6);
  // miss_prob = 1 would miss everything (throws); use a crafted result.
  const std::vector<std::int64_t> xs{5, 60, 20};
  auto mf = find_max(cs, xs, 0.0);
  mf.input_rows[0] = -1;  // inject: first search missed
  mf.misses = 1;
  const auto diffs = subtract(cs, mf, xs);
  EXPECT_EQ(diffs[0], -64);  // below every representable magnitude
  EXPECT_EQ(diffs[1], 0);
  EXPECT_EQ(diffs[2], 20 - 60);
}

TEST(FaultInjection, AllMissesThrowSimulationError) {
  xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 6);
  const std::vector<std::int64_t> xs{5, 60};
  EXPECT_THROW((void)find_max(cs, xs, 1.0), SimulationError);
}

TEST(FaultInjection, SaturatedSubtractionWhenMaxMissed) {
  xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 6);
  const std::vector<std::int64_t> xs{5, 60, 20};
  auto mf = find_max(cs, xs, 0.0);
  // Pretend the true max (60) missed and 20 was elected instead.
  mf.input_rows[1] = -1;
  mf.misses = 1;
  mf.max_row = cs.row_of(20);
  mf.max_code = 20;
  const auto diffs = subtract(cs, mf, xs);
  EXPECT_EQ(diffs[1], -64);  // the missed element underflows
  EXPECT_LE(diffs[0], 0);    // survivors stay non-positive (saturation)
  EXPECT_EQ(diffs[2], 0);
}

TEST(FaultInjection, EngineDegradesGracefullyUnderMisses) {
  StarConfig cfg = nine_bit_cfg();
  cfg.cam_miss_prob = 0.01;
  const SoftmaxEngine engine(cfg);
  SoftmaxRunState run;
  Rng rng(7);
  const auto profile = workload::DatasetProfile::cnews();
  int agree = 0;
  const int rows = 100;
  std::vector<double> exact(64);
  std::vector<double> got(64);
  for (int r = 0; r < rows; ++r) {
    const auto row = profile.sample_row(64, rng);
    nn::softmax_into(row, exact);
    engine.softmax_row_into(row, run, got);
    double sum = 0.0;
    for (double v : got) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
    agree += (argmax(exact) == argmax(got)) ? 1 : 0;
  }
  // 1% matchline misses barely move the argmax.
  EXPECT_GT(static_cast<double>(agree) / rows, 0.9);
}

TEST(FaultInjection, ConfigValidatesMissProb) {
  StarConfig cfg = nine_bit_cfg();
  cfg.cam_miss_prob = 1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.cam_miss_prob = -0.1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

// ---------- golden-file regression: per-length encoder costs ----------

struct LengthCostRow {
  std::int64_t seq_len = 0;
  double latency_us = 0.0, attention_latency_us = 0.0, ffn_latency_us = 0.0;
  double energy_uj = 0.0, attention_energy_uj = 0.0, ffn_energy_uj = 0.0;
  double vector_energy_nj = 0.0, attention_time_share = 0.0, power_mw = 0.0;
};

/// Parse tests/golden/length_costs.csv. Doubles were recorded with %.17g,
/// so strtod round-trips the exact bits the analytic model produced — the
/// comparisons below are bitwise, not approximate.
std::vector<LengthCostRow> load_length_costs() {
  const std::string path =
      std::string(STAR_TEST_GOLDEN_DIR) + "/length_costs.csv";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::vector<LengthCostRow> rows;
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
    EXPECT_EQ(cells.size(), 10u) << "malformed golden row: " << line;
    if (cells.size() != 10u) {
      continue;
    }
    LengthCostRow r;
    r.seq_len = std::atoll(cells[0].c_str());
    r.latency_us = std::strtod(cells[1].c_str(), nullptr);
    r.attention_latency_us = std::strtod(cells[2].c_str(), nullptr);
    r.ffn_latency_us = std::strtod(cells[3].c_str(), nullptr);
    r.energy_uj = std::strtod(cells[4].c_str(), nullptr);
    r.attention_energy_uj = std::strtod(cells[5].c_str(), nullptr);
    r.ffn_energy_uj = std::strtod(cells[6].c_str(), nullptr);
    r.vector_energy_nj = std::strtod(cells[7].c_str(), nullptr);
    r.attention_time_share = std::strtod(cells[8].c_str(), nullptr);
    r.power_mw = std::strtod(cells[9].c_str(), nullptr);
    rows.push_back(r);
  }
  return rows;
}

TEST(EncoderModelGolden, PerLengthCostsExactlyMatchGolden) {
  // The serving layer prices requests by sequence length (length-bucketed
  // batching, padding-waste accounting), so the per-length analytic cost
  // curve is load-bearing API: any drift at the lengths the buckets quote
  // must be a deliberate, golden-updating change.
  const EncoderModel model(nine_bit_cfg());
  const auto rows = load_length_costs();
  ASSERT_EQ(rows.size(), 5u);
  const std::int64_t expected_lens[] = {32, 64, 128, 256, 384};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    ASSERT_EQ(r.seq_len, expected_lens[i]);
    const auto res = model.run_encoder_layer(kBert, r.seq_len);
    EXPECT_EQ(res.latency.as_us(), r.latency_us) << "L=" << r.seq_len;
    EXPECT_EQ(res.attention.latency.as_us(), r.attention_latency_us)
        << "L=" << r.seq_len;
    EXPECT_EQ(res.ffn_latency.as_us(), r.ffn_latency_us) << "L=" << r.seq_len;
    EXPECT_EQ(res.energy.as_uJ(), r.energy_uj) << "L=" << r.seq_len;
    EXPECT_EQ(res.attention.energy.as_uJ(), r.attention_energy_uj)
        << "L=" << r.seq_len;
    EXPECT_EQ(res.ffn_energy.as_uJ(), r.ffn_energy_uj) << "L=" << r.seq_len;
    EXPECT_EQ(res.vector_unit_energy.as_nJ(), r.vector_energy_nj)
        << "L=" << r.seq_len;
    EXPECT_EQ(res.attention_time_share, r.attention_time_share)
        << "L=" << r.seq_len;
    EXPECT_EQ(res.power.as_mW(), r.power_mw) << "L=" << r.seq_len;
  }
}

TEST(EncoderModelGolden, GoldenLengthsBracketTheBucketEdges) {
  // Costs must be strictly monotone in length (longer requests are never
  // cheaper) — the property that makes pad-to-bucket-edge billing an upper
  // bound on true cost.
  const auto rows = load_length_costs();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].latency_us, rows[i - 1].latency_us);
    EXPECT_GT(rows[i].energy_uj, rows[i - 1].energy_uj);
  }
}

}  // namespace
}  // namespace star::core
