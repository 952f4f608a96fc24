// Histograms for workload analysis (score ranges for the bitwidth study,
// utilisation distributions, error summaries).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace star::sim {

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins (they matter for range analyses, so they are not dropped).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] const std::vector<std::size_t>& bins() const { return counts_; }
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Value below which `q` of the mass lies (linear within bins).
  [[nodiscard]] double quantile(double q) const;

  /// Sparkline-style single-row render for logs.
  [[nodiscard]] std::string ascii(std::size_t width = 60) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace star::sim
