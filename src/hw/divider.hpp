// Fixed-point divider: the final stage of every softmax implementation in
// this repo (e^(xi-xmax) / sum). Functional semantics + cost.
#pragma once

#include <cstdint>
#include <span>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/status.hpp"

namespace star::hw {

class Divider {
 public:
  /// `bits`: functional operand width; latency = bits cycles (non-restoring).
  /// `cost_bits`: physical datapath width for the cost model; defaults to
  /// `bits`. STAR's divider normalises the denominator with a leading-one
  /// detector and divides at the output precision, so its physical array is
  /// much narrower than the functional operand range.
  Divider(const TechNode& tech, int bits, int cost_bits = -1);

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] Cost cost() const { return cost_; }

  /// Functional model: floor((num << frac_out_bits) / den); returns the
  /// quotient as a fixed-point code with `frac_out_bits` fraction bits.
  /// den == 0 saturates to the maximum representable code (hardware
  /// behaviour of the saturating divider).
  [[nodiscard]] std::int64_t divide(std::int64_t num, std::int64_t den,
                                    int frac_out_bits) const {
    require(frac_out_bits >= 0 && frac_out_bits <= 32,
            "Divider::divide: frac_out_bits must be in [0, 32]");
    require(num >= 0 && den >= 0, "Divider::divide: unsigned datapath only");
    return den == 0 ? saturated() : quotient(num, den, frac_out_bits);
  }

  /// The divide stage over one row: out[i] = divide(nums[i], den,
  /// frac_out_bits), with the operand checks made once for the row.
  void divide_row(std::span<const std::int64_t> nums, std::int64_t den,
                  int frac_out_bits, std::span<std::int64_t> out) const;

 private:
  [[nodiscard]] std::int64_t saturated() const { return (std::int64_t{1} << bits_) - 1; }
  /// The quotient rule for checked operands and den > 0.
  [[nodiscard]] std::int64_t quotient(std::int64_t num, std::int64_t den,
                                      int frac_out_bits) const {
    const std::int64_t q = (num << frac_out_bits) / den;
    return q > saturated() ? saturated() : q;
  }

  int bits_;
  Cost cost_;
};

}  // namespace star::hw
