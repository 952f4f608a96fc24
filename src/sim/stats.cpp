#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace star::sim {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  require(hi > lo, "Histogram: hi must be > lo");
  require(bins >= 1, "Histogram: at least one bin");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  const auto n = static_cast<long>(counts_.size());
  long idx = static_cast<long>(std::floor(t * static_cast<double>(n)));
  idx = std::clamp(idx, 0L, n - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram::quantile: q must be in [0, 1]");
  if (total_ == 0) {
    return lo_;
  }
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  const double bin_w = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return lo_ + (static_cast<double>(i) + frac) * bin_w;
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::ascii(std::size_t width) const {
  static const char* kLevels = " .:-=+*#%@";
  std::string out;
  out.reserve(width);
  const std::size_t n = counts_.size();
  std::size_t peak = 1;
  for (auto c : counts_) {
    peak = std::max(peak, c);
  }
  for (std::size_t w = 0; w < width; ++w) {
    const std::size_t i = w * n / width;
    const double frac = static_cast<double>(counts_[i]) / static_cast<double>(peak);
    const int level = static_cast<int>(std::round(frac * 9.0));
    out += kLevels[level];
  }
  return out;
}

}  // namespace star::sim
