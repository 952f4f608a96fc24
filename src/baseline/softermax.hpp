// Softermax (Stevens et al., DAC 2021) — the optimised CMOS comparator in
// Table I.
//
// Softermax replaces e^x with 2^x (a shift plus a small fraction LUT),
// computes the running max and running sum *online* in one pass
// (rescaling the partial sum by 2^(m_old - m_new) on max updates), and
// normalises with a low-precision divider. Per lane it needs only a
// shifter, a tiny LUT, an adder and a narrow divider — roughly a third of
// the baseline's area — but it is still a per-element arithmetic datapath,
// which is the gap STAR's crossbar lookup closes.
#pragma once

#include <span>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "nn/softmax_ref.hpp"

namespace star::baseline {

struct SoftermaxConfig {
  int lanes = 32;
  int frac_bits = 8;      ///< 2^frac LUT output precision
  int operand_bits = 12;  ///< running-sum width
  int output_bits = 8;    ///< normalised output width
};

class SoftermaxUnit final : public nn::RowSoftmaxInto {
 public:
  SoftermaxUnit(const hw::TechNode& tech, SoftermaxConfig cfg = {});

  // --- functional ---
  /// Online base-2 softmax: p_i = 2^(x_i' - m) / sum_j 2^(x_j' - m) with
  /// x' = x * log2(e) quantised, computed in one streaming pass exactly as
  /// the hardware would (running max + rescaled running sum), written into
  /// a caller span of x.size().
  void operator()(std::span<const double> x, std::span<double> out) override;
  [[nodiscard]] const char* name() const override { return "softermax"; }

  // --- cost ---
  [[nodiscard]] Area area() const;
  [[nodiscard]] Power leakage() const;
  [[nodiscard]] Time row_latency(int d) const;
  [[nodiscard]] Energy row_energy(int d) const;
  [[nodiscard]] Power active_power(int d) const;
  [[nodiscard]] hw::CostSheet cost_sheet(int d) const;
  [[nodiscard]] const SoftermaxConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] double pow2_quant(double frac_exponent) const;

  hw::TechNode tech_;
  SoftermaxConfig cfg_;
  hw::Cost lane_;      ///< shifter + 2^frac LUT + running max/sum update
  hw::Cost div_lane_;  ///< narrow output divider
  hw::Cost regs_;
};

}  // namespace star::baseline
