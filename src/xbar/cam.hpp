// CAM crossbar: content-addressable search over stored codes.
//
// Each row stores one `bits`-wide pattern in complementary cell pairs
// (2 cells per bit, hence the paper's 256x18 geometry for 9-bit data:
// 2^9 / 2 = 256 rows per bank is NOT the encoding — the 256 rows hold the
// 256 representable 8-bit magnitudes and 18 columns = 9 bits x 2 cells).
// A search drives the query on the search lines; a row's matchline stays
// high iff every bit matches. The digital-equivalent semantics is exact
// pattern match; an optional miss rate models matchline sensing errors.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/device.hpp"

namespace star::xbar {

class CamCrossbar {
 public:
  /// `rows` stored patterns of `bits` bits (2 cells/bit on the die).
  CamCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int physical_cols() const { return 2 * bits_; }

  /// Program row `r` to match `code` (0 <= code < 2^bits).
  void store(int r, std::int64_t code);

  /// Fill rows 0..n-1 with codes produced by `code_of_row`.
  void fill(const std::vector<std::int64_t>& codes);

  /// One search cycle: writes the matchline vector for `code` into
  /// caller-owned scratch (resized to rows(); no allocation once its
  /// capacity covers that). Search-error rate `miss_prob` flips a matching
  /// line low with that probability, drawing one fault sample per matching
  /// row from the caller's per-run stream; the crossbar is not mutated, so
  /// it may be shared across threads.
  void search_into(std::int64_t code, double miss_prob, Rng& rng,
                   std::vector<bool>& match) const;

  /// True when every programmed row holds a distinct code (and the code
  /// space is small enough to index). Then a search can match at most one
  /// row, which enables the O(1) search_row() fast path.
  [[nodiscard]] bool unique_codes() const { return unique_codes_; }

  /// O(1) search over the inverted code->row index: returns the matching
  /// row, or -1 on a stored miss / injected sensing fault. Draws exactly
  /// the fault samples the dense scan would (one bernoulli iff a row
  /// matches and miss_prob > 0), so the matchline contents implied by the
  /// result are bit- and RNG-stream-identical to search_into(). Only
  /// valid when unique_codes().
  [[nodiscard]] int search_row(std::int64_t code, double miss_prob, Rng& rng) const {
    require(code >= 0 && code < (std::int64_t{1} << bits_),
            "CamCrossbar::search: code out of range");
    STAR_ASSERT(unique_codes_, "CamCrossbar::search_row: requires unique stored codes");
    const std::int32_t r = row_of_code_[static_cast<std::size_t>(code)];
    if (r < 0) {
      return -1;
    }
    // Same fault-draw rule as the dense scan: with unique codes exactly one
    // row matches, so exactly one bernoulli is consumed (and none when
    // fault injection is off) — the RNG stream stays bit-identical.
    const bool sensed = miss_prob <= 0.0 || !rng.bernoulli(miss_prob);
    return sensed ? static_cast<int>(r) : -1;
  }

  /// Per-search dynamic energy, latency; total area incl. sense amps.
  [[nodiscard]] hw::Cost search_cost() const { return search_cost_; }
  [[nodiscard]] Area area() const { return area_; }
  [[nodiscard]] Power leakage() const { return leakage_; }

  /// Cost of programming the full pattern set.
  [[nodiscard]] Energy program_energy() const;
  [[nodiscard]] Time program_latency() const;

 private:
  hw::TechNode tech_;
  RramDevice device_;
  int rows_;
  int bits_;
  std::vector<std::int64_t> stored_;  // -1 = unprogrammed (never matches)
  // Inverted index over stored_: code -> row, -1 = absent. Rebuilt after
  // every mutation (programming is cold; searching is the hot path), valid
  // only while the stored codes are pairwise distinct. Skipped entirely
  // when 2^bits would make the table unreasonable.
  void rebuild_index();
  std::vector<std::int32_t> row_of_code_;
  bool unique_codes_ = false;
  hw::Cost search_cost_;
  Area area_{};
  Power leakage_{};
};

}  // namespace star::xbar
