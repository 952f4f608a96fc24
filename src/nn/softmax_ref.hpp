// Reference (exact, numerically stable) softmax — the ground truth every
// hardware softmax in this repo is measured against.
#pragma once

#include <span>

namespace star::nn {

/// Numerically stable softmax of one row, exp(x - max) / sum(exp(x - max)),
/// written into `out` (same length as `x`; may alias it).
void softmax_into(std::span<const double> x, std::span<double> out);

/// log(sum(exp(x))) computed stably (used by tests as an independent oracle:
/// softmax(x)_i == exp(x_i - logsumexp(x))).
double logsumexp(std::span<const double> x);

/// Row-softmax interface, so attention runs on the reference, the STAR
/// engine, Softermax or the CMOS baseline interchangeably
/// (nn/workspace.hpp). Implementations must write exactly x.size()
/// probabilities into `out` and must not allocate on the warm path
/// (per-run scratch lives behind the implementation, e.g.
/// core::SoftmaxScratch).
class RowSoftmaxInto {
 public:
  virtual ~RowSoftmaxInto() = default;
  virtual void operator()(std::span<const double> x, std::span<double> out) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The exact implementation of RowSoftmaxInto.
class ExactSoftmaxInto final : public RowSoftmaxInto {
 public:
  void operator()(std::span<const double> x, std::span<double> out) override {
    softmax_into(x, out);
  }
  [[nodiscard]] const char* name() const override { return "exact"; }
};

}  // namespace star::nn
