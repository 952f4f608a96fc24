#include "xbar/cam.hpp"

#include "hw/sense_amp.hpp"
#include "util/status.hpp"

namespace star::xbar {

CamCrossbar::CamCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int bits)
    : tech_(tech),
      device_(device),
      rows_(rows),
      bits_(bits),
      stored_(static_cast<std::size_t>(rows), -1) {
  require(rows >= 1, "CamCrossbar: rows must be >= 1");
  require(bits >= 1 && bits <= 32, "CamCrossbar: bits must be in [1, 32]");
  device_.validate();

  // Area: 2 cells/bit crosspoints + one matchline sense amp per row +
  // search-line drivers per bit pair.
  const hw::SenseAmp sa(tech);
  const double cells = static_cast<double>(rows_) * physical_cols();
  area_ = device_.cell_area(tech.feature_nm) * cells +
          sa.cost().area * static_cast<double>(rows_) +
          Area::um2(1.4 * physical_cols());

  // Search energy is capacitive, not resistive: every matchline precharges
  // and (on mismatch) discharges through ON cells within ~1 ns; search
  // lines swing across the full column height. C ~ 0.2 fF per attached
  // cell is representative of 32 nm crosspoint wiring.
  constexpr double kCapPerCellFf = 0.04;  // nanoscale crosspoint + wire share
  // Matchlines and search lines swing at the logic supply, not the analog
  // read voltage.
  const double v2 = tech.vdd * tech.vdd;
  const double matchline_fj =
      static_cast<double>(rows_) * physical_cols() * kCapPerCellFf * v2;
  // Half the search lines toggle per search on average.
  const double searchline_fj =
      0.5 * physical_cols() * static_cast<double>(rows_) * kCapPerCellFf * v2;
  Energy search = Energy::fJ(matchline_fj + searchline_fj);
  search += sa.cost().energy_per_op * static_cast<double>(rows_);

  constexpr double kSearchPulseNs = 1.0;  // matchline evaluate time
  search_cost_.area = area_;
  search_cost_.energy_per_op = search;
  search_cost_.latency = Time::ns(kSearchPulseNs) + sa.cost().latency;
  leakage_ = sa.cost().leakage * static_cast<double>(rows_);
  search_cost_.leakage = leakage_;
  rebuild_index();
}

void CamCrossbar::rebuild_index() {
  // 2^16 * 4 B caps the table at 256 KiB; every crossbar the engine builds
  // (<= 12-bit codes) is far below that, wider configs just keep the scan.
  constexpr int kIndexMaxBits = 16;
  if (bits_ > kIndexMaxBits) {
    unique_codes_ = false;
    row_of_code_.clear();
    return;
  }
  row_of_code_.assign(std::size_t{1} << bits_, -1);
  unique_codes_ = true;
  for (int r = 0; r < rows_; ++r) {
    const std::int64_t code = stored_[static_cast<std::size_t>(r)];
    if (code < 0) {
      continue;  // unprogrammed rows never match
    }
    std::int32_t& slot = row_of_code_[static_cast<std::size_t>(code)];
    if (slot >= 0) {
      // A duplicate code can raise two matchlines; only the dense scan
      // reproduces that, so the O(1) path switches itself off.
      unique_codes_ = false;
      return;
    }
    slot = r;
  }
}

void CamCrossbar::store(int r, std::int64_t code) {
  require(r >= 0 && r < rows_, "CamCrossbar::store: row out of range");
  require(code >= 0 && code < (std::int64_t{1} << bits_),
          "CamCrossbar::store: code out of range for " + std::to_string(bits_) + " bits");
  stored_[static_cast<std::size_t>(r)] = code;
  rebuild_index();
}

void CamCrossbar::fill(const std::vector<std::int64_t>& codes) {
  require(static_cast<int>(codes.size()) <= rows_,
          "CamCrossbar::fill: more codes than rows");
  for (std::size_t r = 0; r < codes.size(); ++r) {
    store(static_cast<int>(r), codes[r]);
  }
}

// STAR_HOT
void CamCrossbar::search_into(std::int64_t code, double miss_prob, Rng& rng,
                              std::vector<bool>& match) const {
  require(code >= 0 && code < (std::int64_t{1} << bits_),
          "CamCrossbar::search: code out of range");
  match.assign(static_cast<std::size_t>(rows_), false);
  for (int r = 0; r < rows_; ++r) {
    if (stored_[static_cast<std::size_t>(r)] == code) {
      const bool sensed = miss_prob <= 0.0 || !rng.bernoulli(miss_prob);
      match[static_cast<std::size_t>(r)] = sensed;
    }
  }
}

Energy CamCrossbar::program_energy() const {
  const double cells = static_cast<double>(rows_) * physical_cols();
  return device_.write_energy() * cells;
}

Time CamCrossbar::program_latency() const {
  // Row-serial programming.
  return device_.write_latency() * static_cast<double>(rows_);
}

}  // namespace star::xbar
