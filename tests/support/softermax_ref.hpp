// Offline (two-pass) Softermax reference: the oracle for the online
// single-pass baseline::SoftermaxUnit. Same arithmetic, but the maximum is
// found first and every exponent is taken against it once, so the
// running-max rescaling of the online pass has nothing to hide behind.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "baseline/softermax.hpp"
#include "util/math.hpp"

namespace star::testing_ref {

inline std::vector<double> softermax_offline(const baseline::SoftermaxConfig& cfg,
                                             std::span<const double> x) {
  constexpr double kLog2E = 1.4426950408889634;
  const double in_step = 0.25;
  const double lut_scale = std::ldexp(1.0, cfg.frac_bits);
  std::vector<double> xp(x.size());
  double m = -1e300;
  for (std::size_t i = 0; i < x.size(); ++i) {
    xp[i] = round_half_even(x[i] * kLog2E / in_step) * in_step;
    m = std::max(m, std::ceil(xp[i]));
  }
  // 2^d for d <= 0: an exact power of two for integral d, else the
  // quantised 2^frac LUT entry shifted by the integer part.
  const auto pow2 = [&](double d) {
    const double d_int = std::floor(d);
    const double d_frac = d - d_int;
    if (d_frac == 0.0) {
      return std::ldexp(1.0, static_cast<int>(d_int));
    }
    const double lut = round_half_even(std::pow(2.0, d_frac - 1.0) * lut_scale) / lut_scale;
    return std::ldexp(lut, static_cast<int>(d_int) + 1);
  };
  double s = 0.0;
  std::vector<double> e(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    e[i] = pow2(xp[i] - m);
    s += e[i];
  }
  const double out_step = std::ldexp(1.0, -cfg.output_bits);
  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    p[i] = round_half_even(e[i] / s / out_step) * out_step;
  }
  return p;
}

}  // namespace star::testing_ref
