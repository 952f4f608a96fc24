// Tests for the dataset profiles, trace generators and the bitwidth study —
// including the headline reproduction of the paper's 8/9/7-bit findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/workspace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/accuracy_proxy.hpp"
#include "workload/arrival_trace.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"

namespace star::workload {
namespace {

TEST(DatasetProfile, ThreeDatasetsDefined) {
  const auto all = DatasetProfile::all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "CNEWS");
  EXPECT_EQ(all[1].name, "MRPC");
  EXPECT_EQ(all[2].name, "CoLA");
}

TEST(DatasetProfile, SpreadRespectsClamp) {
  Rng rng(1);
  for (const auto& p : DatasetProfile::all()) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto row = p.sample_row(128, rng);
      const double mx = *std::max_element(row.begin(), row.end());
      const double mn = *std::min_element(row.begin(), row.end());
      EXPECT_LE(mx - mn, p.max_spread + 1e-9) << p.name;
      EXPECT_GE(mx - mn, 0.0);
    }
  }
}

TEST(DatasetProfile, DeterministicGivenSeed) {
  const auto p = DatasetProfile::cnews();
  Rng a(42), b(42);
  EXPECT_EQ(p.sample_row(64, a), p.sample_row(64, b));
}

TEST(DatasetProfile, ColaSpreadFitsFiveIntegerBits) {
  const auto p = DatasetProfile::cola();
  Rng rng(2);
  double worst = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto row = p.sample_row(128, rng);
    const double mx = *std::max_element(row.begin(), row.end());
    const double mn = *std::min_element(row.begin(), row.end());
    worst = std::max(worst, mx - mn);
  }
  EXPECT_LT(worst, 32.0);
  EXPECT_GT(worst, 16.0);  // and needs all five bits
}

TEST(DatasetProfile, CnewsAndMrpcNeedSixIntegerBits) {
  Rng rng(3);
  for (const auto& p : {DatasetProfile::cnews(), DatasetProfile::mrpc()}) {
    double worst = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
      const auto row = p.sample_row(128, rng);
      const double mx = *std::max_element(row.begin(), row.end());
      const double mn = *std::min_element(row.begin(), row.end());
      worst = std::max(worst, mx - mn);
    }
    EXPECT_GT(worst, 32.0) << p.name;
    EXPECT_LT(worst, 64.0) << p.name;
  }
}

TEST(TraceGen, ScoreBatchShape) {
  Rng rng(4);
  const auto batch = score_batch(DatasetProfile::cnews(), 10, 32, rng);
  ASSERT_EQ(batch.size(), 10u);
  EXPECT_EQ(batch[0].size(), 32u);
  EXPECT_GT(max_spread(batch), 0.0);
}

TEST(TraceGen, QkvScoreStdApproximatelyControlled) {
  Rng rng(5);
  const auto t = random_qkv(64, 64, 4.0, rng);
  nn::Tensor s(64, 64);
  nn::matmul_transb_into(nn::view_of(t.q), nn::view_of(t.k), nn::view_of(s));
  nn::scale_inplace(nn::view_of(s), 1.0 / std::sqrt(64.0));
  EXPECT_NEAR(stddev(s.flat()), 4.0, 1.5);
}

// ---------- quantized softmax oracle ----------

TEST(QuantizedSoftmax, NormalisedAndOrderPreserving) {
  Rng rng(6);
  const auto p = DatasetProfile::cnews();
  for (int trial = 0; trial < 20; ++trial) {
    const auto row = p.sample_row(64, rng);
    const auto q = quantized_softmax(row, fxp::kCnewsFormat, 11);
    double sum = 0.0;
    for (double v : q) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(QuantizedSoftmax, ApproachesExactWithWideFormat) {
  Rng rng(7);
  const auto row = DatasetProfile::cola().sample_row(64, rng);
  std::vector<double> exact(row.size());
  nn::softmax_into(row, exact);
  const auto q = quantized_softmax(row, fxp::make_unsigned(6, 6), 24);
  EXPECT_LT(max_abs_diff(exact, q), 2e-3);
}

TEST(QuantizedSoftmax, DegenerateUnderflowGivesUniform) {
  // All elements far below the max except one... make ALL equal and deep:
  // with a 1-fraction-bit LUT every exponent of a >1 magnitude underflows.
  const std::vector<double> row{-100.0, -100.0, -100.0, -100.0};
  const auto q = quantized_softmax(row, fxp::make_unsigned(6, 2), 11);
  // Equal inputs match the same code: this is NOT underflow (mag = 0).
  EXPECT_NEAR(q[0], 0.25, 1e-9);
}

TEST(QuantizedSoftmax, RejectsSignedFormats) {
  EXPECT_THROW(
      quantized_softmax(std::vector<double>{1.0}, fxp::make_signed(5, 2), 11),
      InvalidArgument);
}

// ---------- the paper's bitwidth findings (Section II) ----------

TEST(BitwidthStudy, CnewsRequiresEightBits) {
  const auto r = required_bitwidth(DatasetProfile::cnews());
  EXPECT_EQ(r.int_bits, 6);
  EXPECT_EQ(r.frac_bits, 2);
  EXPECT_EQ(r.total_bits(), 8);
}

TEST(BitwidthStudy, MrpcRequiresNineBits) {
  const auto r = required_bitwidth(DatasetProfile::mrpc());
  EXPECT_EQ(r.int_bits, 6);
  EXPECT_EQ(r.frac_bits, 3);
  EXPECT_EQ(r.total_bits(), 9);
}

TEST(BitwidthStudy, ColaRequiresSevenBits) {
  const auto r = required_bitwidth(DatasetProfile::cola());
  EXPECT_EQ(r.int_bits, 5);
  EXPECT_EQ(r.frac_bits, 2);
  EXPECT_EQ(r.total_bits(), 7);
}

TEST(BitwidthStudy, MatchesProfileExpectations) {
  for (const auto& p : DatasetProfile::all()) {
    const auto r = required_bitwidth(p);
    EXPECT_EQ(r.int_bits, p.expected_int_bits) << p.name;
    EXPECT_EQ(r.frac_bits, p.expected_frac_bits) << p.name;
  }
}

TEST(ProxyMetrics, AgreementImprovesWithFracBits) {
  const auto p = DatasetProfile::mrpc();
  double prev = 0.0;
  for (int f = 1; f <= 4; ++f) {
    const auto m = evaluate_format(p, fxp::make_unsigned(6, f));
    EXPECT_GE(m.top1_agreement, prev - 0.02);  // allow tiny sampling noise
    prev = m.top1_agreement;
  }
}

TEST(ProxyMetrics, RmseHalvesPerFracBit) {
  const auto p = DatasetProfile::cnews();
  const auto coarse = evaluate_format(p, fxp::make_unsigned(6, 1));
  const auto fine = evaluate_format(p, fxp::make_unsigned(6, 3));
  EXPECT_GT(coarse.prob_rmse, 2.0 * fine.prob_rmse);
}

TEST(ProxyMetrics, DeterministicGivenSeed) {
  const auto p = DatasetProfile::cola();
  const auto a = evaluate_format(p, fxp::kColaFormat);
  const auto b = evaluate_format(p, fxp::kColaFormat);
  EXPECT_DOUBLE_EQ(a.mean_kl, b.mean_kl);
  EXPECT_DOUBLE_EQ(a.top1_agreement, b.top1_agreement);
}

TEST(DefaultLutFracBits, TracksOperandWidthWithCap) {
  EXPECT_EQ(default_lut_frac_bits(fxp::kCnewsFormat), 11);
  EXPECT_EQ(default_lut_frac_bits(fxp::kMrpcFormat), 12);
  EXPECT_EQ(default_lut_frac_bits(fxp::make_unsigned(10, 4)), 15);  // capped
}

// ---------- per-sequence seed derivation (the shared batch/serve rule) ----------

TEST(SequenceSeeds, SingleElementFormMatchesVectorForm) {
  const std::uint64_t run_seed = 0xDECAF;
  const auto seeds = sequence_seeds(9, run_seed);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(sequence_seed(run_seed, i), seeds[i]) << "index " << i;
  }
}

TEST(SequenceSeeds, RuleIsTheIthDrawOfTheParentStream) {
  const std::uint64_t run_seed = 0x5EED;
  Rng parent(run_seed);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sequence_seed(run_seed, i), parent());
  }
}

// ---------- open-loop arrival traces ----------

TEST(ArrivalTrace, DeterministicGivenSeed) {
  const auto a = ArrivalTrace::generate(64, ArrivalProcess::kPoisson, 3.0, 17);
  const auto b = ArrivalTrace::generate(64, ArrivalProcess::kPoisson, 3.0, 17);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a.arrival_ticks, b.arrival_ticks);
  const auto c = ArrivalTrace::generate(64, ArrivalProcess::kPoisson, 3.0, 18);
  EXPECT_NE(a.arrival_ticks, c.arrival_ticks);
}

TEST(ArrivalTrace, StrictlyIncreasingAndNonNegative) {
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kUniform}) {
    const auto t = ArrivalTrace::generate(200, process, 1.5, 7);
    double prev = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i == 0) {
        EXPECT_GE(t.arrival_ticks[i], 0.0);
      } else {
        EXPECT_GT(t.arrival_ticks[i], prev);
      }
      EXPECT_GE(t.inter_arrival_ticks(i), 0.0);
      prev = t.arrival_ticks[i];
    }
    EXPECT_DOUBLE_EQ(t.makespan_ticks(), t.arrival_ticks.back());
  }
}

TEST(ArrivalTrace, ZeroAndAbsorbedGapsStillStrictlyIncrease) {
  // Degenerate gaps a process can draw: exact zeros (uniform() == 0) and
  // gaps small enough that t + gap == t in double arithmetic. from_gaps is
  // the path every generated trace takes; duplicates here would reach the
  // open-loop bench as simultaneous arrivals.
  const auto t = ArrivalTrace::from_gaps({0.0, 0.0, 1.0, 1e-300, 0.0, 2.5});
  ASSERT_EQ(t.size(), 6u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t.arrival_ticks[i], t.arrival_ticks[i - 1]) << "i=" << i;
  }
  // Non-degenerate gaps are untouched by the nudge.
  EXPECT_DOUBLE_EQ(t.arrival_ticks[5] - t.arrival_ticks[4], 2.5);
  EXPECT_THROW(ArrivalTrace::from_gaps({-1.0}), InvalidArgument);
}

TEST(ArrivalTrace, MeanInterArrivalApproximatelyControlled) {
  constexpr std::size_t kN = 4000;
  constexpr double kMean = 2.0;
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kUniform}) {
    const auto t = ArrivalTrace::generate(kN, process, kMean, 99);
    const double empirical = t.makespan_ticks() / static_cast<double>(kN);
    EXPECT_NEAR(empirical, kMean, 0.15 * kMean);
  }
}

TEST(ArrivalTrace, UniformGapsAreBounded) {
  const auto t = ArrivalTrace::generate(500, ArrivalProcess::kUniform, 2.5, 3);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LT(t.inter_arrival_ticks(i), 5.0);
  }
}

TEST(ArrivalTrace, ProcessesDifferAndEmptyTraceIsSane) {
  const auto p = ArrivalTrace::generate(32, ArrivalProcess::kPoisson, 1.0, 5);
  const auto u = ArrivalTrace::generate(32, ArrivalProcess::kUniform, 1.0, 5);
  EXPECT_NE(p.arrival_ticks, u.arrival_ticks);
  const auto e = ArrivalTrace::generate(0, ArrivalProcess::kPoisson, 1.0, 5);
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.makespan_ticks(), 0.0);
  EXPECT_THROW(ArrivalTrace::generate(4, ArrivalProcess::kPoisson, 0.0, 5),
               InvalidArgument);
}

// ---------- burst / diurnal arrival shapes ----------

TEST(ArrivalShapes, BurstTraceDeterministicAndStrictlyIncreasing) {
  BurstShape shape;
  const auto a = ArrivalTrace::generate_burst(4000, shape, 0xB00);
  const auto b = ArrivalTrace::generate_burst(4000, shape, 0xB00);
  ASSERT_EQ(a.size(), 4000u);
  EXPECT_EQ(a.arrival_ticks, b.arrival_ticks);  // seed-deterministic, exact
  EXPECT_GT(a.arrival_ticks.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    // The from_gaps ulp-nudge rule: STRICTLY increasing, never merely
    // non-decreasing, even where thinning accepts near-simultaneous draws.
    ASSERT_LT(a.arrival_ticks[i - 1], a.arrival_ticks[i]) << "i=" << i;
  }
  const auto c = ArrivalTrace::generate_burst(4000, shape, 0xB01);
  EXPECT_NE(a.arrival_ticks, c.arrival_ticks);  // seed actually matters
}

TEST(ArrivalShapes, DiurnalTraceDeterministicAndStrictlyIncreasing) {
  DiurnalShape shape;
  const auto a = ArrivalTrace::generate_diurnal(4000, shape, 0xD00);
  const auto b = ArrivalTrace::generate_diurnal(4000, shape, 0xD00);
  EXPECT_EQ(a.arrival_ticks, b.arrival_ticks);
  for (std::size_t i = 1; i < a.size(); ++i) {
    ASSERT_LT(a.arrival_ticks[i - 1], a.arrival_ticks[i]) << "i=" << i;
  }
}

TEST(ArrivalShapes, BurstRateProfileIsMeanPreservingSquareWave) {
  BurstShape shape;
  shape.mean_inter_arrival_ticks = 2.0;
  shape.period_ticks = 100.0;
  shape.duty = 0.2;
  shape.intensity = 3.0;
  const double r = 1.0 / shape.mean_inter_arrival_ticks;
  // In-window rate is intensity * r; off-window rate rebalances so the
  // period-average stays exactly r.
  EXPECT_DOUBLE_EQ(shape.rate_at(5.0), 3.0 * r);
  EXPECT_DOUBLE_EQ(shape.rate_at(19.9), 3.0 * r);
  const double off = shape.rate_at(50.0);
  EXPECT_DOUBLE_EQ(shape.duty * shape.intensity * r + (1.0 - shape.duty) * off,
                   r);
  EXPECT_DOUBLE_EQ(shape.rate_at(105.0), 3.0 * r);  // periodic
  EXPECT_DOUBLE_EQ(shape.peak_rate(), 3.0 * r);
}

TEST(ArrivalShapes, DiurnalRateProfileOscillatesAroundMean) {
  DiurnalShape shape;
  shape.mean_inter_arrival_ticks = 1.0;
  shape.period_ticks = 400.0;
  shape.amplitude = 0.5;
  EXPECT_DOUBLE_EQ(shape.rate_at(0.0), 1.0);            // sin(0) = 0
  EXPECT_DOUBLE_EQ(shape.rate_at(100.0), 1.5);          // quarter period: peak
  EXPECT_DOUBLE_EQ(shape.rate_at(300.0), 0.5);          // trough
  EXPECT_DOUBLE_EQ(shape.peak_rate(), 1.5);
  for (double t = 0.0; t < 800.0; t += 13.0) {
    EXPECT_GT(shape.rate_at(t), 0.0);  // amplitude < 1: rate never vanishes
    EXPECT_LE(shape.rate_at(t), shape.peak_rate() + 1e-12);
  }
}

TEST(ArrivalShapes, BurstEmpiricalRateMatchesShapeWithinTolerance) {
  // Lewis-Shedler thinning is an EXACT inhomogeneous Poisson construction:
  // the empirical overall rate must match 1/mean, and the in-burst windows
  // must hold ~duty*intensity of the arrivals.
  BurstShape shape;
  shape.mean_inter_arrival_ticks = 1.0;
  shape.period_ticks = 200.0;
  shape.duty = 0.25;
  shape.intensity = 3.0;
  const std::size_t n = 60000;
  const auto trace = ArrivalTrace::generate_burst(n, shape, 0xFEED);
  const double empirical_mean = trace.makespan_ticks() / static_cast<double>(n);
  EXPECT_NEAR(empirical_mean, shape.mean_inter_arrival_ticks,
              0.05 * shape.mean_inter_arrival_ticks);
  std::size_t in_window = 0;
  for (const double t : trace.arrival_ticks) {
    const double phase = std::fmod(t, shape.period_ticks);
    in_window += phase < shape.duty * shape.period_ticks ? 1 : 0;
  }
  const double in_share = static_cast<double>(in_window) / static_cast<double>(n);
  EXPECT_NEAR(in_share, shape.duty * shape.intensity, 0.05);
}

TEST(ArrivalShapes, DiurnalEmpiricalRateTracksTheSinusoid) {
  DiurnalShape shape;
  shape.mean_inter_arrival_ticks = 1.0;
  shape.period_ticks = 500.0;
  shape.amplitude = 0.8;
  const std::size_t n = 60000;
  const auto trace = ArrivalTrace::generate_diurnal(n, shape, 0xFACE);
  EXPECT_NEAR(trace.makespan_ticks() / static_cast<double>(n), 1.0, 0.05);
  // Peak-phase halves of the cycle must hold more arrivals than trough
  // halves, by roughly the amplitude-implied ratio.
  std::size_t rising = 0;
  for (const double t : trace.arrival_ticks) {
    const double phase = std::fmod(t, shape.period_ticks);
    rising += phase < shape.period_ticks / 2.0 ? 1 : 0;  // sin > 0 half
  }
  const double rising_share = static_cast<double>(rising) / static_cast<double>(n);
  // Integrating r*(1+a*sin) over the positive half gives (1 + 2a/pi)/2.
  constexpr double kPi = 3.14159265358979323846;
  const double expected = 0.5 * (1.0 + 2.0 * shape.amplitude / kPi);
  EXPECT_NEAR(rising_share, expected, 0.03);
}

TEST(ArrivalShapes, ValidationRejectsMalformedShapes) {
  BurstShape b;
  b.duty = 0.0;
  EXPECT_THROW(ArrivalTrace::generate_burst(4, b, 1), InvalidArgument);
  b = BurstShape{};
  b.intensity = 0.5;  // below 1: not a burst
  EXPECT_THROW(ArrivalTrace::generate_burst(4, b, 1), InvalidArgument);
  b = BurstShape{};
  b.duty = 0.5;
  b.intensity = 3.0;  // duty*intensity > 1: off-window rate would go negative
  EXPECT_THROW(ArrivalTrace::generate_burst(4, b, 1), InvalidArgument);
  DiurnalShape d;
  d.amplitude = 1.0;  // rate would touch zero: thinning never terminates
  EXPECT_THROW(ArrivalTrace::generate_diurnal(4, d, 1), InvalidArgument);
  d = DiurnalShape{};
  d.mean_inter_arrival_ticks = 0.0;
  EXPECT_THROW(ArrivalTrace::generate_diurnal(4, d, 1), InvalidArgument);
}

// ---------- per-dataset length histograms ----------

TEST(LengthHistogram, PerDatasetHistogramsAreValidAndOrdered) {
  for (const Dataset d : {Dataset::kCnews, Dataset::kMrpc, Dataset::kCola,
                          Dataset::kDefault}) {
    const auto hist = length_histogram_for(d);
    hist.validate();
    ASSERT_FALSE(hist.bins.empty());
    double weight = 0.0;
    for (std::size_t i = 0; i < hist.bins.size(); ++i) {
      EXPECT_GE(hist.bins[i].len, 2);
      if (i > 0) {
        EXPECT_LT(hist.bins[i - 1].len, hist.bins[i].len);
      }
      weight += hist.bins[i].weight;
    }
    EXPECT_GT(weight, 0.0);
    EXPECT_EQ(hist.min_len(), hist.bins.front().len);
    EXPECT_EQ(hist.max_len(), hist.bins.back().len);
    EXPECT_GE(hist.mean_len(), static_cast<double>(hist.min_len()));
    EXPECT_LE(hist.mean_len(), static_cast<double>(hist.max_len()));
  }
  // The profiles embed their own histograms, consistent with the factory.
  EXPECT_EQ(DatasetProfile::mrpc().length_hist.bins.size(),
            length_histogram_for(Dataset::kMrpc).bins.size());
}

TEST(LengthHistogram, DatasetsAreLengthDistinct) {
  // CNEWS documents (long), MRPC pairs (medium), CoLA sentences (short):
  // the modelled means must preserve that ordering with clear separation.
  const double cnews = length_histogram_for(Dataset::kCnews).mean_len();
  const double mrpc = length_histogram_for(Dataset::kMrpc).mean_len();
  const double cola = length_histogram_for(Dataset::kCola).mean_len();
  EXPECT_GT(cnews, 2.0 * mrpc);
  EXPECT_GT(mrpc, 2.0 * cola);
}

TEST(LengthHistogram, SamplingIsDeterministicAndMatchesWeights) {
  const auto hist = length_histogram_for(Dataset::kMrpc);
  const std::size_t n = 50000;
  const auto a = sample_lengths(hist, n, 0x1CE);
  const auto b = sample_lengths(hist, n, 0x1CE);
  EXPECT_EQ(a, b);
  const auto c = sample_lengths(hist, n, 0x1CF);
  EXPECT_NE(a, c);
  std::map<std::int64_t, std::size_t> counts;
  for (const auto len : a) {
    ++counts[len];
  }
  double total_weight = 0.0;
  for (const auto& bin : hist.bins) {
    total_weight += bin.weight;
  }
  for (const auto& bin : hist.bins) {
    const double expected = bin.weight / total_weight;
    const double got =
        static_cast<double>(counts[bin.len]) / static_cast<double>(n);
    EXPECT_NEAR(got, expected, 0.01) << "len=" << bin.len;
    counts.erase(bin.len);
  }
  EXPECT_TRUE(counts.empty());  // nothing outside the support was drawn
}

TEST(LengthHistogram, FixedHistogramIsAPointMass) {
  const auto hist = LengthHistogram::fixed(48);
  EXPECT_EQ(hist.min_len(), 48);
  EXPECT_EQ(hist.max_len(), 48);
  EXPECT_DOUBLE_EQ(hist.mean_len(), 48.0);
  for (const auto len : sample_lengths(hist, 100, 0x9)) {
    EXPECT_EQ(len, 48);
  }
}

TEST(LengthHistogram, ValidateRejectsMalformedBins) {
  LengthHistogram empty;
  EXPECT_THROW(empty.validate(), InvalidArgument);
  LengthHistogram unsorted;
  unsorted.bins = {{32, 1.0}, {16, 1.0}};
  EXPECT_THROW(unsorted.validate(), InvalidArgument);
  LengthHistogram bad_weight;
  bad_weight.bins = {{16, 0.0}};
  EXPECT_THROW(bad_weight.validate(), InvalidArgument);
  LengthHistogram undersized;
  undersized.bins = {{1, 1.0}};
  EXPECT_THROW(undersized.validate(), InvalidArgument);
}

}  // namespace
}  // namespace star::workload
