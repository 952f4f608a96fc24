// Reference round-to-nearest-even: the library's original libm formula,
// kept verbatim as the oracle for the branch-free star::round_half_even.
// Its edge behaviour is the contract: a negative v that rounds to zero
// gives +0.0 (floor_v + 1.0 with floor_v == -1), -0.0 stays -0.0, and
// |v| >= 2^52, +-inf and NaN come back unchanged.
#pragma once

#include <cmath>

namespace star::testing_ref {

inline double round_half_even_ref(double v) {
  const double r = std::nearbyint(v);
  const double floor_v = std::floor(v);
  const double frac = v - floor_v;
  if (frac == 0.5) {
    return (std::fmod(floor_v, 2.0) == 0.0) ? floor_v : floor_v + 1.0;
  }
  return (frac > 0.5) ? floor_v + 1.0 : (frac < 0.5 ? floor_v : r);
}

}  // namespace star::testing_ref
