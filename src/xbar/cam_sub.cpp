#include "xbar/cam_sub.hpp"

#include <algorithm>

#include "hw/gates.hpp"
#include "hw/sense_amp.hpp"
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
  // search_all relies on every operand code being stored on exactly one
  // row (row_of), which the bijective preload guarantees.
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

template <typename T>
std::int64_t CamSubCrossbar::search_all(std::span<const std::int64_t> codes, double miss_prob,
                                        Rng& rng, std::span<T> sensed) const {
  require(!codes.empty(), "CamSubCrossbar max-find: empty input");
  require(miss_prob >= 0.0 && miss_prob <= 1.0,
          "CamSubCrossbar max-find: miss_prob in [0, 1]");
  // Operand range, checked once per row.
  std::int64_t lo = codes[0];
  std::int64_t hi = codes[0];
  for (const std::int64_t c : codes) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  require(lo >= 0 && hi < rows(), "CamSubCrossbar max-find: code out of operand range");

  // The descending preload stores every operand code, once, so each search
  // raises exactly its own code's matchline. Its fault samples are drawn
  // in one pass, one per search in input order (none when miss_prob == 0);
  // the searches themselves then reduce to straight passes over the codes.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    sensed[i] = static_cast<T>(codes[i]);
  }
  if (miss_prob > 0.0) {
    for (T& c : sensed) {
      if (rng.bernoulli(miss_prob)) {
        c = -1;
      }
    }
  }
  // OR merge + priority encode: the first set line of the descending
  // preload is the largest sensed code (a miss, -1, never wins).
  std::int64_t max_code = -1;
  for (const T c : sensed) {
    max_code = std::max<std::int64_t>(max_code, c);
  }
  return max_code;
}

void CamSubCrossbar::require_a_match(std::int64_t max_code) {
  if (max_code < 0) {
    throw SimulationError(
        "CamSubCrossbar max-find: every search missed; no matchline to encode");
  }
}

// STAR_HOT
void CamSubCrossbar::max_subtract_into(std::span<const std::int64_t> codes,
                                       double miss_prob, Rng& rng,
                                       std::span<std::int64_t> out) const {
  STAR_ASSERT(out.size() == codes.size(),
              "CamSubCrossbar::max_subtract_into: output span length mismatch");
  // Phase A parks each sensed code (-1 = miss) in `out`; phase B overwrites
  // it with the SL output once the priority encoder has elected x_max.
  const std::int64_t max_code = search_all(codes, miss_prob, rng, out);
  require_a_match(max_code);
  for (std::int64_t& o : out) {
    o = o < 0 ? missed_read() : sub_read(o, max_code);
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
  const std::int64_t max_code =
      search_all(codes, miss_prob, rng, std::span<int>(res.input_rows));
  for (int& r : res.input_rows) {
    if (r < 0) {
      ++res.misses;
    } else {
      r = row_of(r);
      res.merged_matchlines[static_cast<std::size_t>(r)] = true;
    }
  }
  require_a_match(max_code);
  res.max_code = max_code;
  res.max_row = row_of(max_code);
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
