// Tests for the STAR crossbar softmax engine — functional equivalence with
// the pure-math oracle, paper geometry, and cost-model sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/workspace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/accuracy_proxy.hpp"
#include "workload/dataset_profile.hpp"

#include "support/softmax_row_ref.hpp"

namespace star::core {
namespace {

StarConfig config_for(const fxp::QFormat& fmt) {
  StarConfig cfg;
  cfg.softmax_format = fmt;
  return cfg;
}

/// Rows whose values stay inside the engine's biased-signed input window
/// (|x| < 2^(b-1) * resolution), where engine and oracle are bit-equivalent.
std::vector<double> in_window_row(const fxp::QFormat& fmt, std::size_t n, Rng& rng) {
  const double half_range = std::ldexp(1.0, fmt.total_bits() - 1) * fmt.resolution();
  std::vector<double> row(n);
  for (auto& v : row) {
    v = rng.uniform(-half_range * 0.9, half_range * 0.9);
  }
  return row;
}

/// One row through softmax_row_into on a fresh run state.
std::vector<double> softmax_row(const SoftmaxEngine& eng, std::span<const double> x) {
  SoftmaxRunState run;
  std::vector<double> p(x.size());
  eng.softmax_row_into(x, run, p);
  return p;
}

/// One operand-code row through forward_codes_into on a fresh run state.
std::vector<std::int64_t> forward_codes(const SoftmaxEngine& eng,
                                        std::span<const std::int64_t> codes) {
  SoftmaxRunState run;
  std::vector<std::int64_t> p(codes.size());
  eng.forward_codes_into(codes, run, p);
  return p;
}

TEST(SoftmaxEngine, GeometryMatchesPaperForNineBits) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));  // 9-bit
  // CAM/SUB 512x18; CAM/LUT/VMM with 256 rows (paper Section III).
  EXPECT_EQ(eng.exp_rows(), 256);
  EXPECT_EQ(eng.format().total_bits(), 9);
}

TEST(SoftmaxEngine, MatchesOracleWithinDividerStep) {
  SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  Rng rng(1);
  const double tol = std::ldexp(1.0, -eng.prob_frac_bits()) * 1.5;
  for (int trial = 0; trial < 30; ++trial) {
    const auto row = in_window_row(eng.format(), 64, rng);
    const auto oracle =
        workload::quantized_softmax(row, eng.format(), eng.lut_frac_bits());
    const auto got = softmax_row(eng, row);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], oracle[i], tol) << "trial " << trial << " i " << i;
    }
  }
}

TEST(SoftmaxEngine, OutputsSumToOneWithinFlooring) {
  SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  Rng rng(2);
  const auto row = in_window_row(eng.format(), 128, rng);
  const auto p = softmax_row(eng, row);
  const double sum = std::accumulate(p.begin(), p.end(), 0.0);
  // Each element floors away < 1 divider LSB.
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GE(sum, 1.0 - 128.0 * std::ldexp(1.0, -eng.prob_frac_bits()));
}

TEST(SoftmaxEngine, OrderPreservingOnCodes) {
  SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  // Codes within e^-x LUT resolution of the max (Q6.2: code 40 = value 10,
  // so the magnitudes below stay representable in the LUT words).
  const std::vector<std::int64_t> codes{16, 40, 30, 40};
  const auto p = forward_codes(eng, codes);
  EXPECT_LT(p[0], p[2]);
  EXPECT_LT(p[2], p[1]);
  EXPECT_EQ(p[1], p[3]);  // equal codes -> identical probabilities
}

TEST(SoftmaxEngine, DeepElementsUnderflowToZero) {
  SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  // Max code and an element farther than the exp CAM row range below it.
  const std::vector<std::int64_t> codes{255, 255 - eng.exp_rows() - 1};
  const auto p = forward_codes(eng, codes);
  EXPECT_EQ(p[1], 0);
  EXPECT_GT(p[0], 0);
}

TEST(SoftmaxEngine, AgreesWithExactSoftmaxOnTypicalRows) {
  SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto row = in_window_row(eng.format(), 32, rng);
    std::vector<double> exact(row.size());
    nn::softmax_into(row, exact);
    const auto got = softmax_row(eng, row);
    EXPECT_EQ(argmax(exact), argmax(got));
    EXPECT_LT(max_abs_diff(exact, got), 0.04);
  }
}

TEST(SoftmaxEngine, WorksAsRowSoftmaxInAttention) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  SoftmaxRunState run;
  SoftmaxEngineRowRef star(eng, run);
  nn::ExactSoftmaxInto exact;
  Rng rng(4);
  const auto w = nn::MhaWeights::random(2, 16, 8, rng);
  const auto x = nn::Tensor::randn(8, 16, rng, 0.0, 2.0);
  nn::Workspace ws;
  ws.require_capacity(1 << 12);
  nn::Tensor out_star(8, 16);
  nn::Tensor out_exact(8, 16);
  nn::multi_head_attention_into(nn::view_of(x), w, star, ws, nn::view_of(out_star));
  nn::multi_head_attention_into(nn::view_of(x), w, exact, ws, nn::view_of(out_exact));
  EXPECT_LT(nn::Tensor::max_abs_diff(out_star, out_exact), 0.15);
}

TEST(SoftmaxEngine, RowStatsPopulatedAndConsistent) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  const auto st = eng.compute_row_stats(64);
  EXPECT_EQ(st.elements, 64);
  EXPECT_GT(st.latency.as_ns(), 0.0);
  EXPECT_GT(st.energy.as_pJ(), 0.0);
  const double stage_sum = st.t_maxfind.as_ns() + st.t_subtract.as_ns() +
                           st.t_exp.as_ns() + st.t_sum.as_ns() + st.t_divide.as_ns();
  EXPECT_NEAR(st.latency.as_ns(), stage_sum, 1e-6);
}

TEST(SoftmaxEngine, NonFiniteAndHugeScoresSaturateAtTheWindowEnds) {
  // Scores are clamped into the operand window before the integer
  // conversion, so +-inf and scores whose scaled value leaves the int64
  // range read as the window's top and floor codes, like +-100 do.
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));  // window +-32
  const double inf = std::numeric_limits<double>::infinity();
  const auto top = softmax_row(eng, std::vector<double>{100.0, 0.0, -1.0});
  EXPECT_GT(top[0], 0.99);
  EXPECT_EQ(top[1], 0.0);
  EXPECT_EQ(top[2], 0.0);
  for (const double big : {inf, 1e300, 2e18}) {
    EXPECT_EQ(softmax_row(eng, std::vector<double>{big, 0.0, -1.0}), top) << big;
  }
  const auto floor = softmax_row(eng, std::vector<double>{-100.0, 0.0, -1.0});
  for (const double small : {-inf, -1e300, -2e18}) {
    EXPECT_EQ(softmax_row(eng, std::vector<double>{small, 0.0, -1.0}), floor) << small;
  }
}

TEST(SoftmaxEngine, NanScoreThrowsBeforeAnyFaultDraw) {
  StarConfig cfg = config_for(fxp::kMrpcFormat);
  cfg.cam_miss_prob = 0.1;
  const SoftmaxEngine eng(cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> row{0.5, -2.0, 3.0, 1.0};
  SoftmaxRunState run(7);
  std::vector<double> got(row.size());
  for (const std::size_t at : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    std::vector<double> bad = row;
    bad[at] = nan;
    EXPECT_THROW(eng.softmax_row_into(bad, run, got), InvalidArgument) << at;
  }
  // Longer rows too: the conditioning loop runs in vector lanes, and a NaN
  // of either sign in any lane (or the tail) must still be caught.
  std::vector<double> long_row(19, 0.25);
  std::vector<double> long_got(long_row.size());
  for (const std::size_t at : {std::size_t{1}, std::size_t{8}, std::size_t{18}}) {
    for (const double bad_value : {nan, -nan}) {
      std::vector<double> bad = long_row;
      bad[at] = bad_value;
      EXPECT_THROW(eng.softmax_row_into(bad, run, long_got), InvalidArgument) << at;
    }
  }
  // The rejected rows consumed no fault samples.
  eng.softmax_row_into(row, run, got);
  SoftmaxRunState fresh(7);
  std::vector<double> want(row.size());
  eng.softmax_row_into(row, fresh, want);
  EXPECT_EQ(got, want);
}

TEST(SoftmaxEngine, CostsGrowWithRowLength) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  EXPECT_GT(eng.row_latency(256).as_ns(), eng.row_latency(64).as_ns());
  EXPECT_GT(eng.row_energy(256).as_pJ(), eng.row_energy(64).as_pJ());
  EXPECT_GT(eng.active_power(128).as_uW(), 0.0);
  EXPECT_GT(eng.preload_energy().as_nJ(), 0.0);
}

// ---------- table preload costs across the paper's dataset formats ----------
// Groundwork for the LUT-programming cache (ROADMAP): per-dataset formats
// imply CAM/LUT table swaps, and the cache will charge preload_energy()
// only on a miss — so its per-format value must be pinned down.

TEST(SoftmaxEngine, PreloadEnergyPositiveAndDeterministicPerFormat) {
  for (const auto& fmt : {fxp::kCnewsFormat, fxp::kMrpcFormat, fxp::kColaFormat}) {
    const SoftmaxEngine eng(config_for(fmt));
    EXPECT_GT(eng.preload_energy().as_nJ(), 0.0) << fmt.name();
    // Same format -> the same programmed image -> the same bits of energy
    // (what a cache hit must be allowed to skip).
    const SoftmaxEngine again(config_for(fmt));
    EXPECT_EQ(eng.preload_energy().as_J(), again.preload_energy().as_J())
        << fmt.name();
  }
}

TEST(SoftmaxEngine, PreloadEnergyGrowsWithOperandWidth) {
  // b-bit operands program a 2^b x 2b CAM/SUB and 2^(b-1)-row CAM/LUT:
  // every extra operand bit doubles the programmed cells, so the ordering
  // CoLA (7b) < CNEWS (8b) < MRPC (9b) is structural.
  const SoftmaxEngine cola(config_for(fxp::kColaFormat));
  const SoftmaxEngine cnews(config_for(fxp::kCnewsFormat));
  const SoftmaxEngine mrpc(config_for(fxp::kMrpcFormat));
  EXPECT_LT(cola.preload_energy().as_nJ(), cnews.preload_energy().as_nJ());
  EXPECT_LT(cnews.preload_energy().as_nJ(), mrpc.preload_energy().as_nJ());
}

TEST(SoftmaxEngine, PreloadEnergyIndependentOfRuntimeKnobs) {
  // The preload prices the programmed tables only — fault injection and
  // replica count are runtime concerns and must not leak into it (a cache
  // keyed by QFormat alone relies on this).
  StarConfig base = config_for(fxp::kCnewsFormat);
  StarConfig faulty = base;
  faulty.cam_miss_prob = 0.2;
  faulty.softmax_engines = 12;
  faulty.max_seq_len = 256;
  EXPECT_EQ(SoftmaxEngine(base).preload_energy().as_J(),
            SoftmaxEngine(faulty).preload_energy().as_J());
}

TEST(SoftmaxEngine, PreloadCostBundlesEnergyAndLatency) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  const hw::ProgramCost pc = eng.preload_cost();
  EXPECT_EQ(pc.energy.as_J(), eng.preload_energy().as_J());
  EXPECT_EQ(pc.latency.as_ns(), eng.preload_latency().as_ns());
  EXPECT_GT(pc.latency.as_ns(), 0.0);
  // The static per-format helper prices exactly the engine an on-the-fly
  // construction would: the residency layer's miss bill is well defined.
  const hw::ProgramCost via_helper =
      SoftmaxEngine::preload_cost_for(config_for(fxp::kCnewsFormat),
                                      fxp::kMrpcFormat);
  EXPECT_EQ(via_helper.energy.as_J(), pc.energy.as_J());
  EXPECT_EQ(via_helper.latency.as_ns(), pc.latency.as_ns());
}

// ---------- golden-file regression: per-format preload bills ----------
// tests/golden/softmax_preload.csv pins the exact doubles of each paper
// format's CAM/LUT image programming bill — the miss cost the residency
// cache charges. Doubles are written with 17 significant digits, so strtod
// round-trips the recorded bits (same discipline as matmul_costs.csv).

TEST(SoftmaxEngineGolden, PreloadCostsMatchGoldenExactly) {
  const std::string path =
      std::string(STAR_TEST_GOLDEN_DIR) + "/softmax_preload.csv";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::string line;
  std::getline(in, line);  // header
  int rows = 0;
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
    ASSERT_EQ(cells.size(), 6u) << "malformed golden row: " << line;
    const fxp::QFormat fmt =
        fxp::make_unsigned(std::atoi(cells[1].c_str()), std::atoi(cells[2].c_str()));
    const SoftmaxEngine eng(config_for(fmt));
    EXPECT_EQ(fmt.name(), cells[0]);
    EXPECT_EQ(fmt.total_bits(), std::atoi(cells[3].c_str())) << cells[0];
    EXPECT_EQ(eng.preload_energy().as_nJ(),
              std::strtod(cells[4].c_str(), nullptr))
        << cells[0];
    EXPECT_EQ(eng.preload_latency().as_ns(),
              std::strtod(cells[5].c_str(), nullptr))
        << cells[0];
    ++rows;
  }
  EXPECT_EQ(rows, 3) << "golden must cover CNEWS, MRPC and CoLA";
}

TEST(SoftmaxEngine, WiderFormatCostsMoreArea) {
  const SoftmaxEngine small(config_for(fxp::kColaFormat));   // 7-bit
  const SoftmaxEngine big(config_for(fxp::kMrpcFormat));     // 9-bit
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
}

TEST(SoftmaxEngine, AreaFarBelowCmosBaseline) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  const baseline::CmosSoftmaxUnit base(hw::TechNode::n32());
  const double ratio = eng.area() / base.area();
  // Paper Table I: 0.06x. Band allows model tolerance.
  EXPECT_GT(ratio, 0.02);
  EXPECT_LT(ratio, 0.09);
}

TEST(SoftmaxEngine, CostSheetListsAllBlocks) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  const auto sheet = eng.cost_sheet(128);
  EXPECT_GE(sheet.items().size(), 6u);
  const std::string breakdown = sheet.breakdown();
  EXPECT_NE(breakdown.find("CAM/SUB"), std::string::npos);
  EXPECT_NE(breakdown.find("LUT"), std::string::npos);
  EXPECT_NE(breakdown.find("divider"), std::string::npos);
  EXPECT_NEAR(sheet.total_area().as_um2(), eng.area().as_um2(),
              eng.area().as_um2() * 0.01);
}

/// The message a StarConfig-rejecting construction throws ("" if none).
std::string construction_error(const StarConfig& cfg) {
  try {
    const SoftmaxEngine eng(cfg);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(SoftmaxEngine, RejectsBadInputs) {
  SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  EXPECT_THROW(softmax_row(eng, std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(forward_codes(eng, std::vector<std::int64_t>{256}), InvalidArgument);
  EXPECT_THROW(forward_codes(eng, std::vector<std::int64_t>{-1}), InvalidArgument);
  EXPECT_THROW((void)eng.row_latency(0), InvalidArgument);

  // The configuration is validated before any member is sized from it: a
  // negative max_seq_len must not reach bits_for (where it would wrap to
  // 2^64 - 5), and a 14-bit format must fail on the StarConfig rule rather
  // than on the first crossbar that cannot hold it.
  StarConfig negative_len;
  negative_len.max_seq_len = -5;
  EXPECT_NE(construction_error(negative_len).find("StarConfig: max_seq_len"),
            std::string::npos)
      << construction_error(negative_len);
  const StarConfig wide = config_for(fxp::make_unsigned(10, 4));
  EXPECT_NE(construction_error(wide).find("StarConfig: softmax format must be 4..12 bits"),
            std::string::npos)
      << construction_error(wide);
}

// ---------- the fused row against the staged reference datapath ----------

/// Operand codes of one row: uniform over the code space, so rows mix
/// in-range magnitudes with ones deep below the exp CAM.
std::vector<std::int64_t> random_codes(std::size_t d, int bits, Rng& rng) {
  std::vector<std::int64_t> codes(d);
  for (auto& c : codes) {
    c = rng.uniform_int(0, (std::int64_t{1} << bits) - 1);
  }
  return codes;
}

TEST(SoftmaxEngineFused, MatchesStagedReferenceBitForBitWithRngState) {
  const std::size_t lengths[] = {1, 2, 3, 17, 255, 256, 257, 1024};
  int rows_thrown = 0;
  for (const double miss : {0.0, 0.02, 0.5, 0.95}) {
    StarConfig cfg = config_for(fxp::kMrpcFormat);
    cfg.cam_miss_prob = miss;
    const SoftmaxEngine eng(cfg);
    testing_ref::SoftmaxRowRef ref(cfg);
    const int bits = eng.format().total_bits();
    for (const std::size_t d : lengths) {
      Rng inputs(0xF05E + d);
      SoftmaxRunState run(0xA11 + d);
      Rng ref_rng(0xA11 + d);
      std::vector<std::int64_t> got(d);
      // Consecutive rows through one run state: the fault stream carries
      // over, so a draw added or lost anywhere shows in the next row.
      for (int r = 0; r < 6; ++r) {
        auto codes = random_codes(d, bits, inputs);
        if (r == 1) {
          // A row whose maximum sits far above the rest: most magnitudes
          // fall below the exp CAM's rows.
          codes[d / 2] = (std::int64_t{1} << bits) - 1;
        }
        std::vector<std::int64_t> want;
        bool ref_threw = false;
        try {
          want = ref.row(codes, ref_rng);
        } catch (const SimulationError&) {
          ref_threw = true;
        }
        if (ref_threw) {
          ++rows_thrown;
          EXPECT_THROW(eng.forward_codes_into(codes, run, got), SimulationError)
              << "miss " << miss << " d " << d << " row " << r;
        } else {
          eng.forward_codes_into(codes, run, got);
          ASSERT_EQ(got, want) << "miss " << miss << " d " << d << " row " << r;
        }
        ASSERT_EQ(run.rng(), ref_rng()) << "RNG state, miss " << miss << " d " << d
                                        << " row " << r;
      }
    }
  }
  // miss 0.95 on rows of 1-3 elements must have hit the all-missed case,
  // whose throw comes after every search has drawn its sample.
  EXPECT_GT(rows_thrown, 0);
}

TEST(SoftmaxEngineFused, SaturatesWhenTheDenominatorIsZero) {
  StarConfig cfg = config_for(fxp::kMrpcFormat);
  cfg.cam_miss_prob = 0.95;
  const SoftmaxEngine eng(cfg);
  testing_ref::SoftmaxRowRef ref(cfg);
  const std::vector<std::int64_t> codes{300};
  std::vector<std::int64_t> got(codes.size());
  // The first seed whose CAM/SUB search senses the element and whose exp
  // search then misses: no counter advances, so the summation reads 0.
  for (std::uint64_t seed = 1;; ++seed) {
    Rng ref_rng(seed);
    std::vector<std::int64_t> want;
    try {
      want = ref.row(codes, ref_rng);
    } catch (const SimulationError&) {
      continue;
    }
    if (ref.last_denom() != 0) {
      continue;
    }
    SoftmaxRunState run(seed);
    eng.forward_codes_into(codes, run, got);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got[0], ref.saturated_code());
    EXPECT_EQ(run.rng(), ref_rng());
    break;
  }
}

TEST(SoftmaxEngineFused, CountersSaturateAsTheReferenceDoes) {
  // max_seq_len 8 gives 3-bit counters (top count 7): a row of 20 equal
  // codes matches exp row 0 twenty times, the counter stops at 7, so the
  // summation reads 7 * e^0 and each probability is floor(2^15 / 7).
  for (const double miss : {0.0, 0.02}) {
    StarConfig cfg = config_for(fxp::kMrpcFormat);
    cfg.max_seq_len = 8;
    cfg.cam_miss_prob = miss;
    const SoftmaxEngine eng(cfg);
    testing_ref::SoftmaxRowRef ref(cfg);
    SoftmaxRunState run(5);
    Rng ref_rng(5);
    const std::vector<std::int64_t> equal(20, 300);
    std::vector<std::int64_t> got(equal.size());
    eng.forward_codes_into(equal, run, got);
    EXPECT_EQ(got, ref.row(equal, ref_rng));
    if (miss == 0.0) {
      EXPECT_EQ(got, std::vector<std::int64_t>(equal.size(), (1 << 15) / 7));
    }
    // Rows of 40 codes from a narrow band: several exp rows saturate.
    Rng inputs(6);
    std::vector<std::int64_t> band(40);
    got.resize(band.size());
    for (int r = 0; r < 8; ++r) {
      for (auto& c : band) {
        c = inputs.uniform_int(296, 300);
      }
      eng.forward_codes_into(band, run, got);
      ASSERT_EQ(got, ref.row(band, ref_rng)) << "miss " << miss << " row " << r;
    }
    EXPECT_EQ(run.rng(), ref_rng());
  }
}

TEST(SoftmaxEngineFused, FaultFreeRowDrawsNothing) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  Rng inputs(9);
  const auto codes = random_codes(300, eng.format().total_bits(), inputs);
  SoftmaxRunState run(77);
  std::vector<std::int64_t> got(codes.size());
  eng.forward_codes_into(codes, run, got);
  Rng untouched(77);
  EXPECT_EQ(run.rng(), untouched());
}

TEST(SoftmaxEngineFused, SharedConstEngineAcrossThreadsMatchesSequential) {
  // One const engine, four threads, one SoftmaxRunState each (the serving
  // shape): every thread's rows must equal the same rows run one thread
  // after another. Run under TSan in CI.
  StarConfig cfg = config_for(fxp::kMrpcFormat);
  cfg.cam_miss_prob = 0.02;
  const SoftmaxEngine eng(cfg);
  constexpr int kThreads = 4;
  constexpr int kRows = 40;
  const auto stream = [&](int t) {
    Rng inputs(100 + static_cast<std::uint64_t>(t));
    SoftmaxRunState run(200 + static_cast<std::uint64_t>(t));
    std::vector<double> row(static_cast<std::size_t>(64 + 32 * t));
    std::vector<double> out(row.size());
    std::vector<double> all;
    for (int r = 0; r < kRows; ++r) {
      for (auto& v : row) {
        v = inputs.normal(0.0, 12.0);
      }
      eng.softmax_row_into(row, run, out);
      all.insert(all.end(), out.begin(), out.end());
    }
    return all;
  };
  std::vector<std::vector<double>> sequential;
  for (int t = 0; t < kThreads; ++t) {
    sequential.push_back(stream(t));
  }
  std::vector<std::vector<double>> threaded(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] { threaded[static_cast<std::size_t>(t)] = stream(t); });
  }
  for (auto& th : pool) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(threaded[static_cast<std::size_t>(t)], sequential[static_cast<std::size_t>(t)])
        << "thread " << t;
  }
}

TEST(SoftmaxEngine, SignedFormatRejectedByConfig) {
  StarConfig cfg;
  cfg.softmax_format = fxp::make_signed(6, 2);
  EXPECT_THROW(SoftmaxEngine{cfg}, InvalidArgument);
}

// Oracle-equivalence sweep across all three paper formats and distributions.
class EngineOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EngineOracleSweep, BitConsistentWithOracle) {
  const auto [ib, fb, seed] = GetParam();
  const fxp::QFormat fmt = fxp::make_unsigned(ib, fb);
  SoftmaxEngine eng(config_for(fmt));
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const double tol = std::ldexp(1.0, -eng.prob_frac_bits()) * 1.5;
  for (int trial = 0; trial < 5; ++trial) {
    const auto row = in_window_row(fmt, 48, rng);
    const auto oracle = workload::quantized_softmax(row, fmt, eng.lut_frac_bits());
    const auto got = softmax_row(eng, row);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], oracle[i], tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, EngineOracleSweep,
    ::testing::Combine(::testing::Values(5, 6), ::testing::Values(2, 3),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace star::core
