#include "xbar/cam_sub.hpp"

#include <algorithm>

#include "hw/gates.hpp"
#include "hw/sense_amp.hpp"
#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::xbar {

CamSubCrossbar::CamSubCrossbar(const hw::TechNode& tech, RramDevice device, int bits)
    : tech_(tech),
      bits_(bits),
      cam_(tech, device, 1 << bits, bits) {
  require(bits >= 2 && bits <= 12, "CamSubCrossbar: bits must be in [2, 12]");

  // Preload every representable code in descending order.
  std::vector<std::int64_t> codes(static_cast<std::size_t>(1) << bits);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    codes[r] = static_cast<std::int64_t>(codes.size() - 1 - r);
  }
  cam_.fill(codes);
  // find_max_into resolves one matchline per search through the CAM's
  // code->row index, which exists only for a bijective preload.
  STAR_ASSERT(cam_.unique_codes(), "CamSubCrossbar: descending preload must be bijective");

  const hw::GateLibrary lib(tech);
  // OR merge: one OR gate per matchline accumulating into a register bank.
  or_merge_ =
      lib.or_tree(cam_.rows()).parallel_with(lib.reg(std::max(1, cam_.rows() / 8)));
  priority_enc_ = lib.priority_encoder(cam_.rows());

  // SUB read: one pulse with two active rows; per-column multi-level sense
  // (modelled as one sense amp per physical column plus a bits-wide
  // correction adder).
  const hw::SenseAmp sa(tech);
  sub_read_.energy_per_op =
      cam_.search_cost().energy_per_op * (2.0 / cam_.rows()) +  // 2 active rows
      sa.cost().energy_per_op * static_cast<double>(physical_cols()) +
      lib.adder(bits_).energy_per_op;
  sub_read_.latency = cam_.search_cost().latency + lib.adder(bits_).latency;
  sub_read_.area = sa.cost().area * static_cast<double>(physical_cols()) +
                   lib.adder(bits_).area;
  sub_read_.leakage = sa.cost().leakage * static_cast<double>(physical_cols());

  area_ = cam_.area() + or_merge_.area + priority_enc_.area + sub_read_.area;
  leakage_ = cam_.leakage() + or_merge_.leakage + priority_enc_.leakage +
             sub_read_.leakage;
}

int CamSubCrossbar::row_of(std::int64_t code) const {
  require(code >= 0 && code < rows(), "CamSubCrossbar::row_of: code out of range");
  return rows() - 1 - static_cast<int>(code);
}

template <typename OnSearch>
int CamSubCrossbar::search_all(std::span<const std::int64_t> codes, double miss_prob,
                               Rng& rng, OnSearch&& on_search) const {
  require(!codes.empty(), "CamSubCrossbar max-find: empty input");
  require(miss_prob >= 0.0 && miss_prob <= 1.0,
          "CamSubCrossbar max-find: miss_prob in [0, 1]");
  // Operand range, checked once per row, so the searches below index the
  // CAM unchecked.
  std::int64_t lo = codes[0];
  std::int64_t hi = codes[0];
  for (const std::int64_t c : codes) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  require(lo >= 0 && hi < rows(), "CamSubCrossbar max-find: code out of operand range");

  // The descending preload is bijective, so each search raises at most one
  // matchline: search_row_unchecked resolves it (and draws its one fault
  // sample) in O(1). The OR merge sets that line; the priority encoder's
  // first set line is the smallest matched row, tracked as the searches go
  // (a miss, -1, compares as the largest unsigned value).
  auto first_row = static_cast<unsigned>(rows());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const int row = cam_.search_row_unchecked(codes[i], miss_prob, rng);
    STAR_CONTRACT(row >= 0 || miss_prob > 0.0,
                  "CamSubCrossbar max-find: every preloaded code must match");
    on_search(i, row);
    first_row = std::min(first_row, static_cast<unsigned>(row));
  }
  if (first_row == static_cast<unsigned>(rows())) {
    throw SimulationError(
        "CamSubCrossbar max-find: every search missed; no matchline to encode");
  }
  return static_cast<int>(first_row);
}

// STAR_HOT
void CamSubCrossbar::max_subtract_into(std::span<const std::int64_t> codes,
                                       double miss_prob, Rng& rng,
                                       std::span<std::int64_t> out) const {
  STAR_ASSERT(out.size() == codes.size(),
              "CamSubCrossbar::max_subtract_into: output span length mismatch");
  // Phase A parks each matched row (-1 = miss) in `out`; phase B overwrites
  // it with the SL output once the priority encoder has elected x_max.
  const int max_row = search_all(codes, miss_prob, rng,
                                 [&](std::size_t i, int row) { out[i] = row; });
  // Priority encode: first set line == largest code (descending preload).
  const std::int64_t max_code = rows() - 1 - max_row;
  // The bijective preload stores x_i on x_i's matched row, so the row's
  // code is the input code itself.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[i] = out[i] < 0 ? missed_read() : sub_read(codes[i], max_code);
  }
}

// STAR_HOT
void CamSubCrossbar::find_max_into(std::span<const std::int64_t> codes,
                                   double miss_prob, Rng& rng,
                                   MaxFindResult& res) const {
  res.max_row = -1;
  res.max_code = 0;
  res.misses = 0;
  res.merged_matchlines.assign(static_cast<std::size_t>(rows()), false);
  res.input_rows.resize(codes.size());
  const int max_row = search_all(codes, miss_prob, rng, [&](std::size_t i, int row) {
    res.input_rows[i] = row;
    if (row >= 0) {
      res.merged_matchlines[static_cast<std::size_t>(row)] = true;
    } else {
      ++res.misses;
    }
  });
  res.max_row = max_row;
  res.max_code = code_at(max_row);
}

void CamSubCrossbar::subtract_into(const MaxFindResult& mf,
                                   std::span<const std::int64_t> codes,
                                   std::span<std::int64_t> out) const {
  require(mf.input_rows.size() == codes.size(),
          "CamSubCrossbar::subtract_into: max-find result does not cover inputs");
  STAR_ASSERT(out.size() == codes.size(),
              "CamSubCrossbar::subtract_into: output span length mismatch");
  // +V on the input's row, -V on the max row: SL output = x_i - x_max.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const int row = mf.input_rows[i];
    out[i] = row < 0 ? missed_read() : sub_read(code_at(row), mf.max_code);
  }
}

Energy CamSubCrossbar::maxfind_energy(int d) const {
  require(d >= 1, "maxfind_energy: d must be >= 1");
  return cam_.search_cost().energy_per_op * static_cast<double>(d) +
         or_merge_.energy_per_op * static_cast<double>(d) +
         priority_enc_.energy_per_op;
}

Time CamSubCrossbar::maxfind_latency(int d) const {
  require(d >= 1, "maxfind_latency: d must be >= 1");
  // Searches are pipelined one per search cycle; the OR merge overlaps.
  return cam_.search_cost().latency * static_cast<double>(d) + priority_enc_.latency;
}

Energy CamSubCrossbar::subtract_energy(int d) const {
  require(d >= 1, "subtract_energy: d must be >= 1");
  return sub_read_.energy_per_op * static_cast<double>(d);
}

Time CamSubCrossbar::subtract_latency(int d) const {
  require(d >= 1, "subtract_latency: d must be >= 1");
  return sub_read_.latency * static_cast<double>(d);
}

}  // namespace star::xbar
