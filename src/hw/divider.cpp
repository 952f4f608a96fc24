#include "hw/divider.hpp"

#include <algorithm>

#include "hw/gates.hpp"
#include "util/status.hpp"

namespace star::hw {

Divider::Divider(const TechNode& tech, int bits, int cost_bits) : bits_(bits) {
  require(bits >= 2 && bits <= 32, "Divider: bits must be in [2, 32]");
  const int physical = cost_bits > 0 ? cost_bits : bits;
  require(physical >= 2 && physical <= 32, "Divider: cost_bits must be in [2, 32]");
  const GateLibrary lib(tech);
  cost_ = lib.divider(physical);
  if (physical != bits) {
    // Normalising front-end: leading-one detector + barrel shifters.
    cost_ = cost_.parallel_with(lib.block(ge::kLodPerBit * bits +
                                          ge::kMux2PerBit * 2.0 * bits));
  }
}

// STAR_HOT
void Divider::divide_row(std::span<const std::int64_t> nums, std::int64_t den,
                         int frac_out_bits, std::span<std::int64_t> out) const {
  require(frac_out_bits >= 0 && frac_out_bits <= 32,
          "Divider::divide: frac_out_bits must be in [0, 32]");
  STAR_ASSERT(out.size() == nums.size(), "Divider::divide_row: output span length mismatch");
  std::int64_t sign_bits = den;
  for (const std::int64_t num : nums) {
    sign_bits |= num;
  }
  require(sign_bits >= 0, "Divider::divide: unsigned datapath only");
  if (den == 0) {
    std::fill(out.begin(), out.end(), saturated());
    return;
  }
  // sign_bits also bounds every operand. When each shifted numerator (and
  // den) is below 2^53, both are exact doubles and the correctly rounded
  // quotient truncates to the integer one: a non-integral n / d sits at
  // least 1/d below the next integer, more than half an ulp of n / d for
  // n < 2^53, so rounding never reaches it.
  if ((sign_bits >> (53 - frac_out_bits)) == 0) {
    const auto d = static_cast<double>(den);
    for (std::size_t i = 0; i < nums.size(); ++i) {
      const auto q = static_cast<std::int64_t>(
          static_cast<double>(nums[i] << frac_out_bits) / d);
      out[i] = q > saturated() ? saturated() : q;
    }
    return;
  }
  for (std::size_t i = 0; i < nums.size(); ++i) {
    out[i] = quotient(nums[i], den, frac_out_bits);
  }
}

}  // namespace star::hw
