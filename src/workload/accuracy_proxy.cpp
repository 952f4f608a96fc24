#include "workload/accuracy_proxy.hpp"

#include <algorithm>
#include <limits>
#include <cmath>

#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::workload {

int default_lut_frac_bits(const fxp::QFormat& fmt) {
  // One integer bit holds e^0 = 1.0; the rest of the word is fraction.
  // Use the engine's natural word width: operand total bits, capped at a
  // 16-bit LUT word.
  return std::min(fmt.total_bits() + 3, 15);
}

std::vector<double> quantized_softmax(std::span<const double> x, const fxp::QFormat& fmt,
                                      int lut_frac_bits) {
  require(!x.empty(), "quantized_softmax: empty input");
  require(!fmt.is_signed, "quantized_softmax: STAR operates on unsigned magnitudes");
  require(lut_frac_bits >= 1 && lut_frac_bits <= 30,
          "quantized_softmax: lut_frac_bits in [1, 30]");

  const double res = fmt.resolution();
  const double lut_scale = std::ldexp(1.0, lut_frac_bits);

  // Step 1: every score is rounded onto the operand grid *individually*
  // (that is what the CAM/SUB crossbar stores and searches); the magnitude
  // is the difference of the rounded codes, capped at the code range.
  std::vector<std::int64_t> codes(x.size());
  std::int64_t c_max = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < x.size(); ++i) {
    codes[i] = static_cast<std::int64_t>(round_half_even(x[i] / res));
    c_max = std::max(c_max, codes[i]);
  }
  const std::int64_t mag_cap = fmt.code_count() - 1;

  std::vector<double> e(x.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t mag = std::min(c_max - codes[i], mag_cap);
    // Step 2: LUT word round(e^-mag*res * 2^m) * 2^-m.
    const double word =
        round_half_even(std::exp(-static_cast<double>(mag) * res) * lut_scale) /
        lut_scale;
    e[i] = word;
    denom += word;
  }
  // Step 3: normalise. The engine's summation (counter histogram x VMM) is
  // integer-exact, so the double sum here is faithful.
  std::vector<double> p(x.size());
  if (denom <= 0.0) {
    // Degenerate: every exponent underflowed the LUT word; hardware outputs
    // a uniform row (all-zero bitlines -> equal codes).
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(x.size()));
    return p;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    p[i] = e[i] / denom;
  }
  return p;
}

ProxyMetrics evaluate_format(const DatasetProfile& profile, const fxp::QFormat& fmt,
                             const ProxyConfig& cfg) {
  fmt.validate();
  require(cfg.rows >= 1 && cfg.row_len >= 2, "evaluate_format: bad proxy config");

  Rng rng(cfg.seed);
  const int lut_bits = default_lut_frac_bits(fmt);

  ProxyMetrics m;
  double kl_acc = 0.0;
  double se_acc = 0.0;
  std::size_t agree = 0;
  std::size_t n_elems = 0;
  std::vector<double> exact;

  for (std::size_t r = 0; r < cfg.rows; ++r) {
    const auto row = profile.sample_row(cfg.row_len, rng);
    exact.resize(row.size());
    nn::softmax_into(row, exact);
    const auto quant = quantized_softmax(row, fmt, lut_bits);

    kl_acc += kl_divergence(exact, quant);
    if (argmax(exact) == argmax(quant)) {
      ++agree;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double d = exact[i] - quant[i];
      se_acc += d * d;
    }
    n_elems += row.size();

    const double mx = *std::max_element(row.begin(), row.end());
    const double mn = *std::min_element(row.begin(), row.end());
    m.max_spread = std::max(m.max_spread, mx - mn);
  }

  m.mean_kl = kl_acc / static_cast<double>(cfg.rows);
  m.top1_agreement = static_cast<double>(agree) / static_cast<double>(cfg.rows);
  m.prob_rmse = std::sqrt(se_acc / static_cast<double>(n_elems));
  return m;
}

BitwidthResult required_bitwidth(const DatasetProfile& profile, const ProxyConfig& cfg,
                                 int max_frac_bits) {
  require(max_frac_bits >= 0 && max_frac_bits <= 10,
          "required_bitwidth: max_frac_bits in [0, 10]");

  // Integer bits: smallest count covering the observed spread. Measured on
  // a probe batch independent of the fraction search.
  Rng rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  double spread = 0.0;
  for (std::size_t r = 0; r < cfg.rows; ++r) {
    const auto row = profile.sample_row(cfg.row_len, rng);
    const double mx = *std::max_element(row.begin(), row.end());
    const double mn = *std::min_element(row.begin(), row.end());
    spread = std::max(spread, mx - mn);
  }
  int int_bits = 1;
  while (std::ldexp(1.0, int_bits) <= spread) {
    ++int_bits;
  }

  BitwidthResult res;
  res.int_bits = int_bits;
  for (int f = 0; f <= max_frac_bits; ++f) {
    const fxp::QFormat fmt = fxp::make_unsigned(int_bits, f);
    const ProxyMetrics m = evaluate_format(profile, fmt, cfg);
    if (m.mean_kl <= cfg.kl_threshold && m.top1_agreement >= cfg.top1_threshold) {
      res.frac_bits = f;
      res.metrics_at_choice = m;
      return res;
    }
    res.metrics_at_choice = m;  // keep the last evaluated metrics
  }
  res.frac_bits = max_frac_bits;
  return res;
}

}  // namespace star::workload
