// Unit tests for src/util: rng, math, units, csv, table, status, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>

#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "support/round_half_even_ref.hpp"

namespace star {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all 6 values hit
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), InvalidArgument);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(42);
  const auto xs = rng.normal_vector(50000, 2.0, 3.0);
  EXPECT_NEAR(mean(xs), 2.0, 0.08);
  EXPECT_NEAR(stddev(xs), 3.0, 0.08);
}

TEST(Rng, LognormalFactorMedianNearOne) {
  Rng rng(5);
  std::vector<double> xs(20001);
  for (auto& x : xs) {
    x = rng.lognormal_factor(0.2);
  }
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(77);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == child()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

// ---------- math ----------

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 128), 1);
  EXPECT_EQ(ceil_div(128, 128), 1);
  EXPECT_EQ(ceil_div(129, 128), 2);
}

TEST(MathUtil, BitsFor) {
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(256), 8);
  EXPECT_EQ(bits_for(257), 9);
  EXPECT_EQ(bits_for(1024), 10);
  // Above 2^63 no shift of 1 reaches n; the loop must stop at 64 bits
  // (a negative int converted to uint64_t lands here).
  EXPECT_EQ(bits_for((std::uint64_t{1} << 63) + 1), 64);
  EXPECT_EQ(bits_for(std::numeric_limits<std::uint64_t>::max()), 64);
  EXPECT_EQ(bits_for(std::uint64_t{1} << 63), 63);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(MathUtil, RoundHalfEvenTieBreaking) {
  EXPECT_EQ(round_half_even(0.5), 0.0);
  EXPECT_EQ(round_half_even(1.5), 2.0);
  EXPECT_EQ(round_half_even(2.5), 2.0);
  EXPECT_EQ(round_half_even(-0.5), 0.0);
  EXPECT_EQ(round_half_even(0.75), 1.0);
  EXPECT_EQ(round_half_even(0.25), 0.0);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_round_matches_ref(double v) {
  const double got = round_half_even(v);
  const double want = testing_ref::round_half_even_ref(v);
  EXPECT_EQ(bits_of(got), bits_of(want))
      << "v=" << v << " (bits " << std::hex << bits_of(v) << "): got " << got
      << ", reference " << want;
}

TEST(MathUtil, RoundHalfEvenBitIdenticalToReferenceOnEdges) {
  const double two52 = std::ldexp(1.0, 52);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> edges = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
      std::nextafter(1.5, 1.0), std::nextafter(1.5, 2.0),
      two52, two52 - 1.0, two52 + 1.0, two52 - 0.5, two52 * 2.0 - 1.0,
      std::ldexp(1.0, 51) + 0.5, std::ldexp(1.0, 51) + 1.5,
      std::ldexp(1.0, 63), std::numeric_limits<double>::max()};
  for (int k = 0; k < 64; ++k) {
    edges.push_back(k + 0.5);  // every tie up to 63.5, both parities
  }
  for (const double e : std::vector<double>(edges)) {
    expect_round_matches_ref(e);
    expect_round_matches_ref(-e);
  }
  // Subnormals of both signs and every magnitude scale.
  for (int e = -1074; e <= -1022; ++e) {
    expect_round_matches_ref(std::ldexp(1.0, e));
    expect_round_matches_ref(-std::ldexp(1.0, e));
  }
}

TEST(MathUtil, RoundHalfEvenBitIdenticalToReferenceOnRandomDoubles) {
  Rng rng(0x80D1);
  for (int i = 0; i < 1000000; ++i) {
    // Half raw bit patterns (every exponent, NaN payloads, subnormals),
    // half values near the quantiser range where ties and fractions live.
    const double v = (i % 2 == 0) ? std::bit_cast<double>(rng())
                                   : rng.uniform(-600.0, 600.0);
    const double got = round_half_even(v);
    const double want = testing_ref::round_half_even_ref(v);
    if (std::isnan(want)) {
      ASSERT_TRUE(std::isnan(got)) << "v bits " << std::hex << bits_of(v);
      continue;
    }
    ASSERT_EQ(bits_of(got), bits_of(want)) << "v=" << v << " (bits " << std::hex
                                           << bits_of(v) << ")";
  }
}

TEST(MathUtil, MeanStdBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(MathUtil, DiffMetrics) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.5, 2.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
  EXPECT_NEAR(rms_diff(a, b), std::sqrt((0.25 + 1.0) / 3.0), 1e-12);
}

TEST(MathUtil, KlDivergenceProperties) {
  const std::vector<double> p{0.5, 0.3, 0.2};
  EXPECT_NEAR(kl_divergence(p, p), 0.0, 1e-12);
  const std::vector<double> q{0.2, 0.3, 0.5};
  EXPECT_GT(kl_divergence(p, q), 0.0);
}

TEST(MathUtil, ArgmaxFirstOccurrence) {
  const std::vector<double> xs{1.0, 5.0, 5.0, 2.0};
  EXPECT_EQ(argmax(xs), 1u);
}

TEST(MathUtil, CosineSimilarity) {
  const std::vector<double> a{1.0, 0.0};
  const std::vector<double> b{0.0, 1.0};
  EXPECT_NEAR(cosine_similarity(a, a), 1.0, 1e-12);
  EXPECT_NEAR(cosine_similarity(a, b), 0.0, 1e-12);
  const std::vector<double> z{0.0, 0.0};
  EXPECT_DOUBLE_EQ(cosine_similarity(z, z), 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, z), 0.0);
}

// ---------- units ----------

TEST(Units, EnergyPowerTimeRelations) {
  const Power p = Power::mW(2.0);
  const Time t = Time::us(3.0);
  const Energy e = p * t;
  EXPECT_NEAR(e.as_nJ(), 6.0, 1e-9);
  EXPECT_NEAR((e / t).as_mW(), 2.0, 1e-9);
  EXPECT_NEAR((e / p).as_us(), 3.0, 1e-9);
}

TEST(Units, AreaArithmetic) {
  const Area a = Area::um2(500.0);
  const Area b = Area::mm2(0.001);
  EXPECT_NEAR((a + b).as_um2(), 1500.0, 1e-9);
  EXPECT_NEAR((a + b) / b, 1.5, 1e-12);
  EXPECT_NEAR((a * 2.0).as_um2(), 1000.0, 1e-9);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Time::ns(1.0), Time::us(1.0));
  EXPECT_GT(Energy::pJ(1000.0), Energy::fJ(1.0));
  EXPECT_EQ(Power::mW(1.0).as_uW(), 1000.0);
}

TEST(Units, Formatting) {
  EXPECT_NE(to_string(Time::ns(5.0)).find("ns"), std::string::npos);
  EXPECT_NE(to_string(Energy::pJ(3.2)).find("pJ"), std::string::npos);
  EXPECT_NE(to_string(Power::mW(1.5)).find("mW"), std::string::npos);
  EXPECT_NE(to_string(Area::mm2(0.32)).find("mm^2"), std::string::npos);
}

// ---------- table / csv ----------

TEST(TablePrinter, RendersAlignedTable) {
  TablePrinter tp({"design", "area"});
  tp.add_row({"baseline", "1.00x"});
  tp.add_row({"ours", "0.06x"});
  const std::string s = tp.str();
  EXPECT_NE(s.find("design"), std::string::npos);
  EXPECT_NE(s.find("0.06x"), std::string::npos);
  EXPECT_EQ(tp.rows(), 2u);
}

TEST(TablePrinter, PadsShortRows) {
  TablePrinter tp({"a", "b", "c"});
  tp.add_row({"x"});
  EXPECT_NO_THROW(tp.str());
}

TEST(TablePrinter, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Csv, NumRoundTrips) {
  EXPECT_EQ(CsvWriter::num(0.5), "0.5");
  EXPECT_EQ(std::stod(CsvWriter::num(612.66)), 612.66);
}

TEST(Csv, WritesQuotedCells) {
  const std::string path = "/tmp/star_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.header({"name", "note"});
    w.row({"a,b", "say \"hi\""});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "name,note");
  EXPECT_EQ(line2, "\"a,b\",\"say \"\"hi\"\"\"");
}

// ---------- status ----------

TEST(Status, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "bad input"), InvalidArgument);
}

TEST(Status, ExpectedGotMessage) {
  EXPECT_EQ(expected_got("rows", 128, 64), "rows: expected 128, got 64");
}

TEST(Status, AssertAbortsOnViolation) {
  EXPECT_DEATH({ STAR_ASSERT(false, "invariant broken"); }, "invariant broken");
}

}  // namespace
}  // namespace star
