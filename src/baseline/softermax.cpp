#include "baseline/softermax.hpp"

#include <algorithm>
#include <cmath>

#include "hw/gates.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::baseline {

namespace {
constexpr double kLog2E = 1.4426950408889634;

// Per-lane GE budgets. The split follows the Softermax paper's datapath
// (base-2 LUT + shifter, online max/sum update, narrow divider); the totals
// are sized to its reported ~3x area reduction against an FP softmax lane.
constexpr double kPow2BlockGe = 1800.0;
constexpr double kOnlineUpdateGe = 1400.0;
constexpr double kControlGe = 1100.0;
}  // namespace

SoftermaxUnit::SoftermaxUnit(const hw::TechNode& tech, SoftermaxConfig cfg)
    : tech_(tech), cfg_(cfg) {
  require(cfg.lanes >= 1 && cfg.lanes <= 512, "SoftermaxUnit: lanes in [1, 512]");
  require(cfg.frac_bits >= 2 && cfg.frac_bits <= 16,
          "SoftermaxUnit: frac_bits in [2, 16]");
  require(cfg.operand_bits >= 8 && cfg.operand_bits <= 24,
          "SoftermaxUnit: operand_bits in [8, 24]");
  require(cfg.output_bits >= 4 && cfg.output_bits <= 16,
          "SoftermaxUnit: output_bits in [4, 16]");

  const hw::GateLibrary lib(tech);
  lane_ = lib.block(kPow2BlockGe + kOnlineUpdateGe + kControlGe);
  // The base-2 path keeps a modest multiplier-free datapath hot:
  // synthesis-class ~4.5 pJ per element.
  lane_.energy_per_op = Energy::pJ(4.5);
  div_lane_ = lib.divider(cfg.output_bits);
  regs_ = lib.reg(3 * cfg.operand_bits);
}

double SoftermaxUnit::pow2_quant(double frac_exponent) const {
  // frac_exponent in (-1, 0]: the LUT holds round(2^f * 2^frac_bits).
  STAR_ASSERT(frac_exponent <= 0.0 && frac_exponent > -1.0,
              "pow2_quant: fractional exponent out of (-1, 0]");
  const double scale = std::ldexp(1.0, cfg_.frac_bits);
  return round_half_even(std::pow(2.0, frac_exponent) * scale) / scale;
}

void SoftermaxUnit::operator()(std::span<const double> x, std::span<double> out) {
  require(!x.empty(), "SoftermaxUnit: empty row");
  STAR_ASSERT(out.size() == x.size(), "SoftermaxUnit: output span length mismatch");
  // Inputs scaled to base 2 and quantised to a 2-fraction-bit grid
  // (Softermax's low-precision input path); `xp` holds them in `out`.
  const double in_step = 0.25;
  const std::span<double> xp = out;
  for (std::size_t i = 0; i < x.size(); ++i) {
    xp[i] = round_half_even(x[i] * kLog2E / in_step) * in_step;
  }

  // Online pass: integer running max, rescaled running sum.
  double m = std::ceil(xp[0]);
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double m_new = std::max(m, std::ceil(xp[i]));
    if (m_new != m) {
      s *= std::ldexp(1.0, static_cast<int>(m - m_new));  // exact shift
      m = m_new;
    }
    const double d = xp[i] - m;  // in (-inf, 0]
    const double d_int = std::floor(d);
    const double d_frac = d - d_int;  // [0, 1)
    const double word =
        (d_frac == 0.0)
            ? std::ldexp(1.0, static_cast<int>(d_int))
            : std::ldexp(pow2_quant(d_frac - 1.0), static_cast<int>(d_int) + 1);
    s += word;
  }

  // Final rescale pass: every stored exponent is already relative to the
  // final max (hardware re-reads the e_i registers). Each element's
  // quantised input is read before its probability overwrites it.
  const double out_step = std::ldexp(1.0, -cfg_.output_bits);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The online pass used the max at visit time; rebase to the final max.
    const double d = xp[i] - m;
    const double d_int = std::floor(d);
    const double d_frac = d - d_int;
    const double word =
        (d_frac == 0.0)
            ? std::ldexp(1.0, static_cast<int>(d_int))
            : std::ldexp(pow2_quant(d_frac - 1.0), static_cast<int>(d_int) + 1);
    out[i] = round_half_even(word / s / out_step) * out_step;
  }
}

Area SoftermaxUnit::area() const {
  const double lanes = cfg_.lanes;
  return lane_.area * lanes + div_lane_.area * lanes + regs_.area * lanes;
}

Power SoftermaxUnit::leakage() const {
  const double lanes = cfg_.lanes;
  return lane_.leakage * lanes + div_lane_.leakage * lanes + regs_.leakage * lanes;
}

Time SoftermaxUnit::row_latency(int d) const {
  require(d >= 1, "SoftermaxUnit::row_latency: d must be >= 1");
  // One online pass plus one normalise pass, `lanes` elements per cycle.
  const double groups = static_cast<double>(ceil_div(d, cfg_.lanes));
  return tech_.clock_period() * (2.0 * groups) + div_lane_.latency;
}

Energy SoftermaxUnit::row_energy(int d) const {
  require(d >= 1, "SoftermaxUnit::row_energy: d must be >= 1");
  const double n = static_cast<double>(d);
  return (lane_.energy_per_op + div_lane_.energy_per_op + regs_.energy_per_op) * n;
}

Power SoftermaxUnit::active_power(int d) const {
  return row_energy(d) / row_latency(d) + leakage();
}

hw::CostSheet SoftermaxUnit::cost_sheet(int d) const {
  const double lanes = cfg_.lanes;
  const double n = static_cast<double>(d);
  hw::CostSheet sheet;
  sheet.add("pow2 LUT + shifter + online update", lane_, lanes, n / lanes);
  sheet.add("output divider", div_lane_, lanes, n / lanes);
  sheet.add("registers", regs_, lanes, n / lanes);
  sheet.set_latency(row_latency(d));
  return sheet;
}

}  // namespace star::baseline
