// LUT crossbar: a one-hot wordline read returns the word stored in that row.
//
// In STAR's exponential unit the LUT rows hold round(e^x * 2^m) for every
// representable x = x_i - x_max; the CAM's matchline vector directly drives
// the LUT wordlines, so a search+read pair computes exp() in two crossbar
// cycles with no arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/contract.hpp"
#include "util/status.hpp"
#include "xbar/device.hpp"

namespace star::xbar {

class LutCrossbar {
 public:
  /// `rows` words of `word_bits` bits (1 cell per bit; binary states).
  LutCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int word_bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int word_bits() const { return word_bits_; }

  /// Program row `r` to hold `word`.
  void store(int r, std::int64_t word);

  /// Fill rows 0..n-1.
  void fill(const std::vector<std::int64_t>& words);

  /// Read with a one-hot wordline vector; returns the selected word
  /// (0 if no line is raised — matches the discharged-bitline behaviour).
  [[nodiscard]] std::int64_t read(const std::vector<bool>& one_hot) const;

  /// Direct indexed read (same cost as read()).
  [[nodiscard]] std::int64_t word_at(int r) const {
    require(r >= 0 && r < rows_, "LutCrossbar::word_at: row out of range");
    return word_at_unchecked(r);
  }

  /// word_at for a row the caller guarantees is in range (a matchline of
  /// a CAM with the same row count). Inline: the engine reads one word per
  /// softmax element.
  [[nodiscard]] std::int64_t word_at_unchecked(int r) const {
    STAR_CONTRACT(r >= 0 && r < rows_, "LutCrossbar::word_at_unchecked: row out of range");
    return words_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] hw::Cost read_cost() const { return read_cost_; }
  [[nodiscard]] Area area() const { return area_; }

  [[nodiscard]] Energy program_energy() const;
  [[nodiscard]] Time program_latency() const;

 private:
  hw::TechNode tech_;
  RramDevice device_;
  int rows_;
  int word_bits_;
  std::vector<std::int64_t> words_;
  hw::Cost read_cost_;
  Area area_{};
};

}  // namespace star::xbar
