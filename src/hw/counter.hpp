// Match counter array (paper Fig. 2): one counter per CAM row accumulates
// how many inputs matched that row; the resulting histogram becomes the
// input vector of the summation VMM crossbar.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::hw {

class CounterArray {
 public:
  /// `rows` counters of `bits` bits each (bits must cover the maximum
  /// sequence length: e.g. 10 bits for 1024 inputs).
  CounterArray(const TechNode& tech, int rows, int bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int bits() const { return bits_; }

  /// Unit cost of one counter; the array cost is unit * rows.
  [[nodiscard]] Cost unit_cost() const { return unit_; }
  [[nodiscard]] Cost array_cost() const;

  // --- functional model ---

  /// Reset all counters to zero.
  void reset();

  /// Accumulate a one-hot match vector (at most one bit set; saturates at
  /// 2^bits - 1 like the physical counter).
  void accumulate(const std::vector<bool>& one_hot);

  /// O(1) accumulate of a known single matchline: identical saturation rule
  /// to accumulate() with only bit `row` set.
  void accumulate_row(int row) {
    require(row >= 0 && row < rows_, "CounterArray::accumulate_row: row out of range");
    accumulate_row_unchecked(row);
  }

  /// accumulate_row for a row the caller guarantees is in range (a
  /// matchline of a CAM with the same row count). Hot-path companion for
  /// CAM searches that resolve the matching row directly (inline: it runs
  /// once per softmax element).
  void accumulate_row_unchecked(int row) {
    STAR_CONTRACT(row >= 0 && row < rows_,
                  "CounterArray::accumulate_row_unchecked: row out of range");
    const std::int64_t sat = (std::int64_t{1} << bits_) - 1;
    std::int64_t& c = counts_[static_cast<std::size_t>(row)];
    if (c < sat) {
      ++c;
    }
  }

  /// Current histogram.
  [[nodiscard]] const std::vector<std::int64_t>& counts() const { return counts_; }

 private:
  int rows_;
  int bits_;
  Cost unit_;
  std::vector<std::int64_t> counts_;
};

}  // namespace star::hw
