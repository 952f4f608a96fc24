// CAM/SUB crossbar — stage 1 of the STAR softmax engine (paper Fig. 1).
//
// One crossbar is time-multiplexed between two functions:
//
//  Phase A (CAM): all representable codes are preloaded in *descending*
//  order (row 0 holds the largest code). Each input x_i is searched in one
//  cycle; its matchline goes high on the row storing x_i. Matchlines of all
//  d searches are OR-merged; because rows are sorted descending, the first
//  set bit of the merged vector is the row of x_max.
//
//  Phase B (SUB): for each x_i the crossbar is read with +V on x_i's
//  matched row and -V on the x_max row; the source-line outputs realise
//  x_i - x_max (always <= 0; the engine keeps the magnitude).
//
// Geometry for b-bit data: 2^b rows x 2b columns (complementary cell pairs),
// e.g. the paper's 512x18 for 9-bit operands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/cam.hpp"

namespace star::xbar {

/// Result of the max-find phase.
struct MaxFindResult {
  int max_row = -1;                      ///< row index of x_max (first set bit)
  std::int64_t max_code = 0;             ///< the code stored on that row
  std::vector<bool> merged_matchlines;   ///< OR of all per-input matchlines
  std::vector<int> input_rows;           ///< matched row per input (-1 = search miss)
  int misses = 0;                        ///< failed searches (fault injection)
};

class CamSubCrossbar {
 public:
  /// `bits`-wide operands; rows = 2^bits, preloaded descending.
  CamSubCrossbar(const hw::TechNode& tech, RramDevice device, int bits);

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int rows() const { return cam_.rows(); }
  [[nodiscard]] int physical_cols() const { return cam_.physical_cols(); }

  /// Code stored on row r (descending preload: 2^bits - 1 - r).
  [[nodiscard]] std::int64_t code_at(int row) const {
    require(row >= 0 && row < rows(), "CamSubCrossbar::code_at: row out of range");
    return static_cast<std::int64_t>(rows() - 1 - row);
  }
  /// Row storing `code`.
  [[nodiscard]] int row_of(std::int64_t code) const;

  /// True when the CAM's stored codes are pairwise distinct (always, for
  /// the descending preload): the precondition of the O(d) max-find.
  [[nodiscard]] bool unique_codes() const { return cam_.unique_codes(); }

  /// Phases A and B fused over one row — the softmax engine's stage 1.
  /// Writes x_i - x_max into `out` (codes.size(); a missed input reads
  /// -(2^bits), see subtract_into). The row is range-checked once; the
  /// searches draw one fault sample each from the caller's per-run stream
  /// (none when miss_prob == 0), in input order, exactly as
  /// find_max_into() does. Throws SimulationError if every search misses.
  void max_subtract_into(std::span<const std::int64_t> codes, double miss_prob, Rng& rng,
                         std::span<std::int64_t> out) const;

  /// Phase A over all inputs: d search cycles + OR merge + priority encode.
  /// `miss_prob` injects matchline sensing failures: a missed input raises
  /// no matchline, is excluded from the max vote and later reads as a deep
  /// (underflowed) magnitude. Throws SimulationError if *every* search
  /// misses (no matchline to encode). The result's vectors are
  /// caller-owned and reused across rows (assign/resize keep capacity, so
  /// a warm row allocates nothing). O(d): each search raises its own
  /// code's row (the preload stores every code once), and the priority
  /// encoder's answer (the first set merged matchline) is the largest
  /// sensed code instead of a scan of all 2^bits lines. The searches are
  /// max_subtract_into()'s, so the two draw identical streams.
  void find_max_into(std::span<const std::int64_t> codes, double miss_prob,
                     Rng& rng, MaxFindResult& res) const;
  /// The same, for callers that still pass the per-search matchline
  /// scratch the dense scan needed; it is left untouched.
  void find_max_into(std::span<const std::int64_t> codes, double miss_prob,
                     Rng& rng, std::vector<bool>& /*match_scratch*/,
                     MaxFindResult& res) const {
    find_max_into(codes, miss_prob, rng, res);
  }

  /// Phase B: per-element x_i - x_max (non-positive), given a
  /// find_max_into result, written into a caller span of codes.size().
  /// Missed inputs read -(2^bits) (below every representable magnitude,
  /// i.e. their exponential underflows to zero downstream). Same
  /// per-element rule as max_subtract_into().
  void subtract_into(const MaxFindResult& mf, std::span<const std::int64_t> codes,
                     std::span<std::int64_t> out) const;

  // --- cost model ---
  [[nodiscard]] Area area() const { return area_; }
  [[nodiscard]] Power leakage() const { return leakage_; }

  /// Costs of a whole max-find over d inputs / a whole subtract pass.
  [[nodiscard]] Energy maxfind_energy(int d) const;
  [[nodiscard]] Time maxfind_latency(int d) const;
  [[nodiscard]] Energy subtract_energy(int d) const;
  [[nodiscard]] Time subtract_latency(int d) const;

  /// One-time preload cost (all 2^bits rows).
  [[nodiscard]] Energy program_energy() const { return cam_.program_energy(); }
  [[nodiscard]] Time program_latency() const { return cam_.program_latency(); }

 private:
  /// Phase A's d search cycles, shared by find_max_into and
  /// max_subtract_into: checks the row once, draws the searches' fault
  /// samples (the one place the CAM/SUB draws them), writes each sensed
  /// code (-1 = miss) into `sensed` and returns the priority encoder's
  /// code (the largest sensed one; -1 if every search missed).
  template <typename T>
  std::int64_t search_all(std::span<const std::int64_t> codes, double miss_prob, Rng& rng,
                          std::span<T> sensed) const;
  /// Throws SimulationError for search_all's every-search-missed result.
  static void require_a_match(std::int64_t max_code);

  /// Phase B's SL output for a matched input: x_i - x_max, saturated at
  /// zero (a survivor can sit above an elected max whose true maximum's
  /// search missed).
  [[nodiscard]] static std::int64_t sub_read(std::int64_t code, std::int64_t max_code) {
    return std::min<std::int64_t>(code - max_code, 0);
  }
  /// Phase B's output for a missed input: no row to drive, the SL stays
  /// discharged, which the downstream exp CAM reads as a magnitude below
  /// every representable one.
  [[nodiscard]] std::int64_t missed_read() const { return -static_cast<std::int64_t>(rows()); }

  hw::TechNode tech_;
  int bits_;
  CamCrossbar cam_;
  hw::Cost or_merge_;
  hw::Cost priority_enc_;
  hw::Cost sub_read_;
  Area area_{};
  Power leakage_{};
};

}  // namespace star::xbar
