// Minimal dense 2-D tensor for the attention substrate.
//
// Row-major double storage: shape, element and row access, transpose and
// scaling. The kernels that compute on it are the span/view ones in
// nn/workspace.hpp. Shapes are always (rows, cols) and checked.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace star::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from flat row-major data: exactly rows * cols values, copied
  /// once (the nested-vector from_rows builder double-copied every weight).
  static Tensor from_flat(std::size_t rows, std::size_t cols,
                          std::span<const double> data);
  /// Literal convenience: Tensor::from_flat(2, 2, {1.0, 2.0, 3.0, 4.0}).
  static Tensor from_flat(std::size_t rows, std::size_t cols,
                          std::initializer_list<double> data);

  /// i.i.d. normal(mean, stddev) entries.
  static Tensor randn(std::size_t rows, std::size_t cols, Rng& rng, double mean = 0.0,
                      double stddev = 1.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  [[nodiscard]] std::span<const double> flat() const { return data_; }
  [[nodiscard]] std::span<double> flat() { return data_; }

  [[nodiscard]] Tensor transposed() const;

  /// Element-wise in-place scale.
  Tensor& scale(double k);

  /// Re-shape in place, reusing the existing heap block whenever the new
  /// element count fits its capacity (the warm-path output-reuse idiom:
  /// a caller-owned result tensor absorbs one request after another
  /// without reallocating). Contents after the call are unspecified —
  /// every element is expected to be overwritten by the producing kernel.
  void reshape(std::size_t rows, std::size_t cols);

  /// max |a - b| over all elements (shape-checked).
  static double max_abs_diff(const Tensor& a, const Tensor& b);

  /// Same shape and byte-for-byte equal storage (the determinism check of
  /// the batched simulation: memcmp, so NaN payloads and signed zeros must
  /// match exactly too).
  static bool bit_identical(const Tensor& a, const Tensor& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace star::nn
