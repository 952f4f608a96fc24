#include "core/softmax_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hw/adc.hpp"
#include "hw/dac.hpp"
#include "hw/gates.hpp"
#include "hw/shift_add.hpp"
#include "util/math.hpp"
#include "util/status.hpp"
#include "workload/accuracy_proxy.hpp"

namespace star::core {

namespace {

/// The engine's probability output precision (divider fraction bits).
constexpr int kProbFracBits = 15;

/// The constructor's first member initialiser: every later member is
/// sized from a configuration that has already passed validate().
const StarConfig& validated(const StarConfig& cfg) {
  cfg.validate();
  return cfg;
}

int exp_rows_for(const fxp::QFormat& fmt) {
  // Half the code space suffices: exponentials of larger magnitudes
  // underflow the LUT word (see file header). Matches the paper's
  // 512-row CAM/SUB vs 256-row CAM/LUT/VMM geometry.
  return 1 << (fmt.total_bits() - 1);
}

}  // namespace

SoftmaxEngine::SoftmaxEngine(const StarConfig& cfg)
    : cfg_(validated(cfg)),
      fmt_(cfg.softmax_format),
      lut_frac_bits_(workload::default_lut_frac_bits(cfg.softmax_format)),
      prob_frac_bits_(kProbFracBits),
      cam_sub_(cfg.tech, cfg.device, cfg.softmax_format.total_bits()),
      exp_cam_(cfg.tech, cfg.device, exp_rows_for(cfg.softmax_format),
               cfg.softmax_format.total_bits()),
      exp_lut_(cfg.tech, cfg.device, exp_rows_for(cfg.softmax_format),
               lut_frac_bits_ + 1),
      counters_(cfg.tech, exp_rows_for(cfg.softmax_format),
                bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
      divider_(cfg.tech,
               std::min(31, lut_frac_bits_ + 1 +
                                bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
               /*cost_bits=*/9),  // normalised 8-bit division + guard bit
      in_buf_(cfg.tech,
              static_cast<double>(cfg.max_seq_len) * cfg.softmax_format.total_bits() /
                  8.0),
      out_buf_(cfg.tech, static_cast<double>(cfg.max_seq_len) * 2.0) {
  // Phase sequencer + address generation for the four crossbar phases.
  control_ = hw::GateLibrary(cfg_.tech).block(3000.0);

  // Preload the exponent tables: row r holds the magnitude code r in the
  // CAM and round(e^(-r * res) * 2^m) in the LUT (paper Fig. 2's
  // WL_i = round(e^(x_i) * 2^m) * 2^(-m) construction).
  const double res = fmt_.resolution();
  const double scale = std::ldexp(1.0, lut_frac_bits_);
  std::vector<std::int64_t> cam_codes(static_cast<std::size_t>(exp_cam_.rows()));
  std::vector<std::int64_t> lut_words(cam_codes.size());
  for (std::size_t r = 0; r < cam_codes.size(); ++r) {
    cam_codes[r] = static_cast<std::int64_t>(r);
    lut_words[r] = static_cast<std::int64_t>(
        round_half_even(std::exp(-static_cast<double>(r) * res) * scale));
  }
  exp_cam_.fill(cam_codes);
  exp_lut_.fill(lut_words);
  // Both CAMs hold a bijective preload, so no search can raise two lines,
  // and the exp stage resolves each search to row == magnitude: check that
  // the preload really is the identity (a search at miss_prob 0 draws
  // nothing).
  STAR_ASSERT(cam_sub_.unique_codes() && exp_cam_.unique_codes(),
              "SoftmaxEngine: CAM preloads must store pairwise distinct codes");
  Rng no_draws(0);
  for (int r = 0; r < exp_cam_.rows(); ++r) {
    STAR_ASSERT(exp_cam_.search_row(r, 0.0, no_draws) == r,
                "SoftmaxEngine: exp CAM row r must store magnitude r");
  }
  // Every exp CAM matchline drives one LUT wordline and one counter, so
  // the datapath indexes both with the matched row unchecked.
  STAR_ASSERT(exp_lut_.rows() == exp_cam_.rows() && counters_.rows() == exp_cam_.rows(),
              "SoftmaxEngine: exp CAM, LUT and counters must have one row each");

  // Summation crossbar periphery: the VMM stores the same table as the LUT;
  // its input is the counter histogram applied bit-serially.
  const hw::SarAdc sum_adc(cfg_.tech, 8);
  const hw::RowDriver sum_driver(cfg_.tech, 1);
  const hw::ShiftAdd sum_shift_add(
      cfg_.tech, std::min(47, lut_frac_bits_ + 1 + counters_.bits() +
                                  bits_for(static_cast<std::uint64_t>(exp_cam_.rows()))));
  const double rows = exp_cam_.rows();
  const double cells = rows * (lut_frac_bits_ + 1);
  sum_area_ = cfg_.device.cell_area(cfg_.tech.feature_nm) * cells +
              sum_adc.cost().area + sum_shift_add.cost().area +
              sum_driver.cost().area * rows;
  sum_leakage_ = sum_adc.cost().leakage + sum_shift_add.cost().leakage +
                 sum_driver.cost().leakage * rows;
  const double count_bits = counters_.bits();
  sum_op_cost_.energy_per_op =
      (sum_driver.cost().energy_per_op * (0.25 * rows) +
       cfg_.device.read_energy(cfg_.device.g_on_us * 0.5) * (0.25 * cells) +
       sum_adc.cost().energy_per_op + sum_shift_add.cost().energy_per_op) *
      count_bits;
  sum_op_cost_.latency =
      (cfg_.device.read_pulse + sum_adc.cost().latency) * count_bits;
  sum_op_cost_.area = sum_area_;
  sum_op_cost_.leakage = sum_leakage_;
}

// STAR_HOT
void SoftmaxEngine::forward_codes_into(std::span<const std::int64_t> codes,
                                       SoftmaxRunState& run,
                                       std::span<std::int64_t> probs_out) const {
  require(!codes.empty(), "SoftmaxEngine::forward_codes: empty row");
  STAR_ASSERT(probs_out.size() == codes.size(),
              "SoftmaxEngine::forward_codes_into: output span length mismatch");
  SoftmaxScratch& scratch = run.scratch;
  scratch.words.resize(codes.size());
  const std::span<std::int64_t> words(scratch.words);
  const double miss_prob = cfg_.cam_miss_prob;

  // Stage 1: CAM/SUB — max find, then subtraction (Fig. 1), fused over the
  // row. It range-checks the operand codes once for the whole row.
  cam_sub_.max_subtract_into(codes, miss_prob, run.rng, words);

  // Stage 2: exponential via CAM search + LUT read, counters accumulate the
  // match histogram (Fig. 2). The counter array is per-run state: each
  // stream clones the prototype once, so concurrent rows through a shared
  // engine never collide and the per-row cost is a reset, not an allocation.
  if (!scratch.counters) {
    scratch.counters.emplace(counters_);
  }
  hw::CounterArray& counters = *scratch.counters;
  counters.reset();
  // Magnitudes are >= 0 (stage 1 saturates at zero) and at most 2^b (a
  // missed search). The identity preload stores magnitude r on row r, so a
  // magnitude below the exp CAM's row count raises exactly its own
  // matchline, which drives the LUT wordline and the counter of that row;
  // any larger one raises none and reads a discharged (zero) LUT word.
  // The searches' fault samples come first, in one pass: one per search
  // that raises a matchline, in element order (none when miss_prob == 0);
  // a missed search is parked as magnitude exp_rows, i.e. no matchline.
  const std::int64_t exp_rows = exp_cam_.rows();
  if (miss_prob > 0.0) {
    for (std::int64_t& w : words) {
      if (-w < exp_rows && run.rng.bernoulli(miss_prob)) {
        w = -exp_rows;
      }
    }
  }
  for (std::int64_t& w : words) {
    const std::int64_t mag = -w;
    std::int64_t e_word = 0;
    if (mag < exp_rows) {
      const auto row = static_cast<int>(mag);
      e_word = exp_lut_.word_at_unchecked(row);
      counters.accumulate_row_unchecked(row);
    }
    w = e_word;
  }

  // Stage 3: summation VMM (counter histogram . stored table).
  const std::int64_t denom = summation_vmm(counters.counts());

  // Stage 4: division.
  divider_.divide_row(words, denom, prob_frac_bits_, probs_out);
}

// STAR_HOT
void SoftmaxEngine::softmax_row_into(std::span<const double> x,
                                     SoftmaxRunState& run,
                                     std::span<double> out) const {
  require(!x.empty(), "SoftmaxEngine: empty row");
  STAR_ASSERT(out.size() == x.size(),
              "SoftmaxEngine::softmax_row_into: output span length mismatch");
  SoftmaxScratch& scratch = run.scratch;

  // Input conditioning: scores arrive as biased-signed fixed point —
  // code = round(x / res) + 2^(b-1), clamped into the window [0, 2^b - 1].
  // Values below the window floor are exactly the ones whose exponential
  // underflows. res is 2^-frac_bits, so x * 2^frac_bits is exactly x / res
  // (both are the correctly rounded value of the same real) without a
  // divide. The clamp runs on the double, before rounding (clamping to
  // integer bounds commutes with rounding half to even), so +-inf and
  // scores beyond the int64 range saturate like any other out-of-window
  // score. The rounding is one add: the clamped value plus 1.5 * 2^52
  // lands on the integer grid by the FPU's own ties-to-even rule, and the
  // integer is the low mantissa bits. Every such sum shares one
  // sign/exponent field and a NaN (which the clamp passes through) has the
  // all-ones one, so OR-ing the bit patterns finds a NaN without a branch:
  // the conditioning is a straight loop over the row.
  constexpr double kRound = 0x1.8p52;
  constexpr auto kRoundBits = std::bit_cast<std::uint64_t>(kRound);
  const double inv_res = std::ldexp(1.0, fmt_.frac_bits);
  const std::int64_t bias = std::int64_t{1} << (fmt_.total_bits() - 1);
  const double lo = -static_cast<double>(bias);
  const double hi = static_cast<double>(bias - 1);
  scratch.codes.resize(x.size());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto bits =
        std::bit_cast<std::uint64_t>(std::min(std::max(x[i] * inv_res, lo), hi) + kRound);
    seen |= bits;
    scratch.codes[i] = static_cast<std::int64_t>(bits - kRoundBits) + bias;
  }
  // A NaN's code is garbage, but the row throws here, so it never reaches
  // the datapath.
  require((seen >> 52) == (kRoundBits >> 52), "SoftmaxEngine: NaN score in row");

  // Probability codes land in scratch, then scale into the output span.
  // A code below 2^52 ORed into 2^52's mantissa is 2^52 + code exactly,
  // so the conversion is one subtraction (and the loop stays straight).
  scratch.prob_codes.resize(x.size());
  forward_codes_into(scratch.codes, run, scratch.prob_codes);
  constexpr double kTwo52 = 0x1.0p52;
  constexpr auto kTwo52Bits = std::bit_cast<std::uint64_t>(kTwo52);
  const double inv = std::ldexp(1.0, -prob_frac_bits_);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto code = static_cast<std::uint64_t>(scratch.prob_codes[i]);
    out[i] = (std::bit_cast<double>(code | kTwo52Bits) - kTwo52) * inv;
  }
}

std::int64_t SoftmaxEngine::summation_vmm(std::span<const std::int64_t> counts) const {
  STAR_ASSERT(static_cast<int>(counts.size()) == exp_lut_.rows(),
              "summation_vmm: histogram size mismatch");
  // Digital-equivalent of the analog dot product: the VMM crossbar stores
  // exactly the LUT table and the counts stream in bit-serially.
  std::int64_t acc = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    acc += counts[r] * exp_lut_.word_at_unchecked(static_cast<int>(r));
  }
  return acc;
}

SoftmaxRowStats SoftmaxEngine::compute_row_stats(int d) const {
  SoftmaxRowStats s;
  s.elements = d;
  s.t_maxfind = cam_sub_.maxfind_latency(d);
  s.e_maxfind = cam_sub_.maxfind_energy(d);
  s.t_subtract = cam_sub_.subtract_latency(d);
  s.e_subtract = cam_sub_.subtract_energy(d);
  // Exp phase: CAM search and LUT read are pipelined; the LUT read pulse is
  // the stage bottleneck. Counter toggles ride along.
  const Time exp_stage =
      std::max(exp_cam_.search_cost().latency, exp_lut_.read_cost().latency);
  s.t_exp = exp_stage * static_cast<double>(d) + exp_cam_.search_cost().latency;
  s.e_exp = (exp_cam_.search_cost().energy_per_op + exp_lut_.read_cost().energy_per_op +
             counters_.unit_cost().energy_per_op) *
            static_cast<double>(d);
  s.t_sum = sum_op_cost_.latency;
  s.e_sum = sum_op_cost_.energy_per_op;
  // Pipelined divider: initiation interval one cycle, depth `bits` cycles.
  s.t_divide = cfg_.tech.clock_period() * static_cast<double>(d) + divider_.cost().latency;
  s.e_divide = divider_.cost().energy_per_op * static_cast<double>(d);

  // Row staging traffic (8-bit-class operands pack several per SRAM word).
  const Energy e_buffers =
      (in_buf_.cost().energy_per_op + out_buf_.cost().energy_per_op) *
      (static_cast<double>(d) / 4.0);

  s.latency = s.t_maxfind + s.t_subtract + s.t_exp + s.t_sum + s.t_divide;
  s.energy = s.e_maxfind + s.e_subtract + s.e_exp + s.e_sum + s.e_divide + e_buffers;
  return s;
}

Area SoftmaxEngine::area() const {
  return cam_sub_.area() + exp_cam_.area() + exp_lut_.area() + sum_area_ +
         counters_.array_cost().area + divider_.cost().area +
         in_buf_.cost().area + out_buf_.cost().area + control_.area;
}

Power SoftmaxEngine::leakage() const {
  return cam_sub_.leakage() + exp_cam_.search_cost().leakage +
         exp_lut_.read_cost().leakage + sum_leakage_ +
         counters_.array_cost().leakage + divider_.cost().leakage +
         in_buf_.cost().leakage + out_buf_.cost().leakage + control_.leakage;
}

Time SoftmaxEngine::row_latency(int d) const {
  require(d >= 1, "SoftmaxEngine::row_latency: d must be >= 1");
  return compute_row_stats(d).latency;
}

Energy SoftmaxEngine::row_energy(int d) const {
  require(d >= 1, "SoftmaxEngine::row_energy: d must be >= 1");
  return compute_row_stats(d).energy;
}

Power SoftmaxEngine::active_power(int d) const {
  const Time t = row_latency(d);
  return row_energy(d) / t + leakage();
}

Energy SoftmaxEngine::preload_energy() const {
  return cam_sub_.program_energy() + exp_cam_.program_energy() +
         exp_lut_.program_energy() * 2.0;  // LUT + identical summation table
}

Time SoftmaxEngine::preload_latency() const {
  // The four tables share one programming port, so the phases serialise
  // (the energy rule above prices the same four programs).
  return cam_sub_.program_latency() + exp_cam_.program_latency() +
         exp_lut_.program_latency() * 2.0;
}

hw::ProgramCost SoftmaxEngine::preload_cost() const {
  return hw::ProgramCost{preload_latency(), preload_energy()};
}

xbar::ImageKey SoftmaxEngine::image_key() const {
  return xbar::lut_image_key(fmt_);
}

hw::ProgramCost SoftmaxEngine::preload_cost_for(const StarConfig& cfg,
                                                const fxp::QFormat& fmt) {
  StarConfig sized = cfg;
  sized.softmax_format = fmt;
  return SoftmaxEngine(sized).preload_cost();
}

hw::CostSheet SoftmaxEngine::cost_sheet(int d) const {
  hw::CostSheet sheet;
  sheet.add("CAM/SUB crossbar " + std::to_string(cam_sub_.rows()) + "x" +
                std::to_string(cam_sub_.physical_cols()),
            hw::Cost{cam_sub_.area(), cam_sub_.maxfind_energy(d) +
                                          cam_sub_.subtract_energy(d),
                     Time{}, cam_sub_.leakage()});
  sheet.add("CAM crossbar " + std::to_string(exp_cam_.rows()) + "x" +
                std::to_string(exp_cam_.physical_cols()),
            hw::Cost{exp_cam_.area(),
                     exp_cam_.search_cost().energy_per_op * static_cast<double>(d),
                     Time{}, exp_cam_.search_cost().leakage});
  sheet.add("LUT crossbar " + std::to_string(exp_lut_.rows()) + "x" +
                std::to_string(exp_lut_.word_bits()),
            hw::Cost{exp_lut_.area(),
                     exp_lut_.read_cost().energy_per_op * static_cast<double>(d),
                     Time{}, exp_lut_.read_cost().leakage});
  sheet.add("summation VMM crossbar",
            hw::Cost{sum_area_, sum_op_cost_.energy_per_op, Time{}, sum_leakage_});
  sheet.add("counter array",
            hw::Cost{counters_.array_cost().area,
                     counters_.unit_cost().energy_per_op * static_cast<double>(d),
                     Time{}, counters_.array_cost().leakage});
  sheet.add("divider",
            hw::Cost{divider_.cost().area,
                     divider_.cost().energy_per_op * static_cast<double>(d), Time{},
                     divider_.cost().leakage});
  sheet.add("row buffers + sequencer",
            hw::Cost{in_buf_.cost().area + out_buf_.cost().area + control_.area,
                     (in_buf_.cost().energy_per_op + out_buf_.cost().energy_per_op) *
                         (static_cast<double>(d) / 4.0),
                     Time{},
                     in_buf_.cost().leakage + out_buf_.cost().leakage +
                         control_.leakage});
  sheet.set_latency(row_latency(d));
  return sheet;
}

}  // namespace star::core
