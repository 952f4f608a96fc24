#include "fxp/qformat.hpp"

#include <cmath>

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::fxp {

void QFormat::validate() const {
  require(int_bits >= 0, "QFormat: int_bits must be >= 0");
  require(frac_bits >= 0, "QFormat: frac_bits must be >= 0");
  require(total_bits() >= 1 && total_bits() <= 31,
          "QFormat: total width must be within [1, 31] bits");
}

double QFormat::resolution() const { return std::ldexp(1.0, -frac_bits); }

double QFormat::min_value() const {
  return is_signed ? -std::ldexp(1.0, int_bits) : 0.0;
}

double QFormat::max_value() const {
  return std::ldexp(1.0, int_bits) - resolution();
}

std::int64_t QFormat::code_count() const { return std::int64_t{1} << total_bits(); }

std::int64_t QFormat::to_code(double v, Rounding r, Overflow o) const {
  const double scaled = std::ldexp(v, frac_bits);
  double rounded = 0.0;
  switch (r) {
    case Rounding::kNearestEven:
      rounded = round_half_even(scaled);
      break;
    case Rounding::kNearest:
      rounded = std::round(scaled);
      break;
    case Rounding::kFloor:
      rounded = std::floor(scaled);
      break;
  }

  const std::int64_t lo = is_signed ? -(std::int64_t{1} << (int_bits + frac_bits)) : 0;
  const std::int64_t hi = (std::int64_t{1} << (int_bits + frac_bits)) - 1;
  if (rounded < static_cast<double>(lo) || rounded > static_cast<double>(hi)) {
    if (o == Overflow::kThrow) {
      throw SimulationError("QFormat::to_code: value " + std::to_string(v) +
                            " overflows " + name());
    }
    return rounded < static_cast<double>(lo) ? lo : hi;
  }
  return static_cast<std::int64_t>(rounded);
}

double QFormat::from_code(std::int64_t code) const {
  return std::ldexp(static_cast<double>(code), -frac_bits);
}

double QFormat::quantize(double v, Rounding r, Overflow o) const {
  return from_code(to_code(v, r, o));
}

bool QFormat::representable(double v) const {
  if (v < min_value() || v > max_value()) {
    return false;
  }
  const double scaled = std::ldexp(v, frac_bits);
  return scaled == std::floor(scaled);
}

std::string QFormat::name() const {
  // Appends into one string: GCC 12 at -O3 flags the chained operator+
  // temporaries with a false-positive -Wrestrict.
  std::string out = "Q";
  out += std::to_string(int_bits);
  out += '.';
  out += std::to_string(frac_bits);
  out += is_signed ? 's' : 'u';
  return out;
}

}  // namespace star::fxp
