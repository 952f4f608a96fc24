// The STAR RRAM-crossbar softmax engine (paper §II, Figs. 1 and 2).
//
// Datapath per score row x_1..x_d:
//
//   CAM/SUB crossbar (2^b x 2b)   max find + subtraction   -> |x_i - x_max|
//   CAM crossbar     (2^(b-1) x 2b) magnitude search        -> one-hot row
//   LUT crossbar     (2^(b-1) x w)  e^-mag word readout     -> e_i
//   Counter array                  match histogram          -> counts[r]
//   Summation crossbar             counts . table           -> sum e_j
//   Divider                        e_i / sum                -> p_i
//
// Magnitudes beyond the exp CAM's row range produce *no* match: the LUT
// bitlines stay discharged (e_i = 0) and the counters do not advance —
// exactly the right semantics, because those exponentials underflow the
// LUT word anyway. This is why 2^(b-1) rows suffice for b-bit operands
// (the paper's 256x18 for 9-bit data).
//
// The engine is bit-exact (under an ideal device) with the pure-math oracle
// workload::quantized_softmax; tests enforce the equivalence.
//
// One datapath, one entry point per level: softmax_row_into (real scores)
// conditions the row into operand codes and runs forward_codes_into (the
// hardware stages). Costs are pure functions of the row length
// (compute_row_stats).
//
// Determinism: both entry points are const. The engine is shared read-only
// geometry; every per-run mutable fact (the fault-injection stream, the
// datapath scratch) lives in a caller-owned SoftmaxRunState whose Rng is
// explicitly seeded, so (seed, row sequence) reproduces every probability
// code bit for bit no matter how many threads share the engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "hw/component.hpp"
#include "hw/counter.hpp"
#include "hw/divider.hpp"
#include "hw/sram.hpp"
#include "nn/softmax_ref.hpp"
#include "xbar/cam.hpp"
#include "xbar/cam_sub.hpp"
#include "xbar/lut.hpp"
#include "xbar/residency.hpp"

namespace star::core {

/// Per-row execution record (costs of the last processed row).
struct SoftmaxRowStats {
  int elements = 0;
  Time latency{};
  Energy energy{};
  // Stage split, for the pipeline model and ablations.
  Time t_maxfind{}, t_subtract{}, t_exp{}, t_sum{}, t_divide{};
  Energy e_maxfind{}, e_subtract{}, e_exp{}, e_sum{}, e_divide{};
};

/// Reusable per-run scratch of the softmax datapath. Sized on the first
/// row (resize keeps capacity), so every subsequent row of the same or
/// smaller length allocates nothing — the arena discipline applied to the
/// engine internals.
struct SoftmaxScratch {
  std::vector<std::int64_t> codes;  ///< quantised operand row
  /// x_i - x_max from the CAM/SUB, overwritten in place by the LUT readouts.
  std::vector<std::int64_t> words;
  std::vector<std::int64_t> prob_codes;  ///< probability codes (codes stays live)
  /// Per-run counter array, cloned from the engine's prototype on first
  /// use and reset per row (so the hot loop never allocates).
  std::optional<hw::CounterArray> counters;
};

/// Per-run mutable state of one stream through a (shared, read-only)
/// SoftmaxEngine: the fault-injection RNG stream and the datapath scratch.
/// Each concurrent sequence owns one; the engine itself is never mutated on
/// the const datapath.
struct SoftmaxRunState {
  explicit SoftmaxRunState(std::uint64_t seed = 0xCA3) : rng(seed) {}

  /// Rebind this state to a new request without discarding warmed-up
  /// buffers: the RNG restarts exactly as a freshly constructed
  /// SoftmaxRunState(seed) would (bit-identical fault streams), while the
  /// scratch (cloned counters included) keeps its capacity — reseeding is how a
  /// pooled per-worker state serves request after request allocation-free.
  void reseed(std::uint64_t seed) { rng = Rng(seed); }

  Rng rng;
  /// Datapath scratch, reused across rows and requests.
  SoftmaxScratch scratch;
};

class SoftmaxEngine final {
 public:
  explicit SoftmaxEngine(const StarConfig& cfg);

  /// Softmax of a real-valued row through the full quantised crossbar
  /// datapath, written into a caller span of x.size(). Scores are
  /// conditioned into operand codes (saturating at the window's ends, so
  /// +-inf and huge scores read as the extreme codes); a NaN score throws
  /// InvalidArgument. Every intermediate lives in run.scratch (warm rows
  /// allocate nothing); only `run` changes, so many threads may share the
  /// engine, one SoftmaxRunState each.
  void softmax_row_into(std::span<const double> x, SoftmaxRunState& run,
                        std::span<double> out) const;
  /// The hardware stages on pre-quantised operand codes (unsigned, < 2^b),
  /// writing probability codes with `prob_frac_bits()` fraction bits into a
  /// caller span. One fused pass per hardware stage (CAM/SUB max +
  /// subtract, exp CAM/LUT + counters, summation, divide), each checking
  /// the row once; only run.scratch and run.rng change.
  void forward_codes_into(std::span<const std::int64_t> codes,
                          SoftmaxRunState& run,
                          std::span<std::int64_t> probs_out) const;

  // --- formats ---
  [[nodiscard]] const fxp::QFormat& format() const { return fmt_; }
  [[nodiscard]] int lut_frac_bits() const { return lut_frac_bits_; }
  [[nodiscard]] int prob_frac_bits() const { return prob_frac_bits_; }
  [[nodiscard]] int exp_rows() const { return exp_cam_.rows(); }

  // --- cost model ---
  [[nodiscard]] Area area() const;
  [[nodiscard]] Power leakage() const;
  /// Average power while streaming rows of length d back-to-back.
  [[nodiscard]] Power active_power(int d) const;
  [[nodiscard]] Time row_latency(int d) const;
  [[nodiscard]] Energy row_energy(int d) const;
  /// Full cost record of one row of length d (pure; thread-safe).
  [[nodiscard]] SoftmaxRowStats compute_row_stats(int d) const;
  /// One-time table preload cost (CAM/SUB codes, exp table, sum table).
  [[nodiscard]] Energy preload_energy() const;
  /// Time to program those tables (serial phases on the one write port:
  /// CAM/SUB codes, exp CAM patterns, exp LUT words, summation table).
  [[nodiscard]] Time preload_latency() const;
  /// The full programming bill of this engine's CAM/LUT image — what the
  /// residency layer charges when the image must be (re)programmed.
  [[nodiscard]] hw::ProgramCost preload_cost() const;
  /// Residency identity of this engine's image (keyed by operand format).
  [[nodiscard]] xbar::ImageKey image_key() const;
  /// Programming bill of the CAM/LUT image for `fmt` on `cfg`'s substrate
  /// (tech node, device): the per-dataset miss cost of the LUT image cache.
  /// Sizes a throwaway engine for `fmt` — use at setup, not per row.
  [[nodiscard]] static hw::ProgramCost preload_cost_for(const StarConfig& cfg,
                                                        const fxp::QFormat& fmt);
  [[nodiscard]] hw::CostSheet cost_sheet(int d) const;

 private:
  [[nodiscard]] std::int64_t summation_vmm(std::span<const std::int64_t> counts) const;

  StarConfig cfg_;
  fxp::QFormat fmt_;
  int lut_frac_bits_;
  int prob_frac_bits_;

  xbar::CamSubCrossbar cam_sub_;
  xbar::CamCrossbar exp_cam_;
  xbar::LutCrossbar exp_lut_;
  hw::CounterArray counters_;
  hw::Divider divider_;
  // Summation crossbar periphery (the VMM stores the same table as the LUT).
  hw::Cost sum_op_cost_;
  Area sum_area_{};
  Power sum_leakage_{};
  // Row staging buffers and the phase sequencer.
  hw::Sram in_buf_;
  hw::Sram out_buf_;
  hw::Cost control_;
};

/// nn::RowSoftmaxInto adapter binding a shared const SoftmaxEngine to a
/// borrowed per-run state, so the attention and encoder kernels run on the
/// engine. The encoder path constructs one per request over a pooled,
/// reseeded SoftmaxRunState — construction is free.
class SoftmaxEngineRowRef final : public nn::RowSoftmaxInto {
 public:
  SoftmaxEngineRowRef(const SoftmaxEngine& engine, SoftmaxRunState& run)
      : engine_(&engine), run_(&run) {}

  void operator()(std::span<const double> x, std::span<double> out) override {
    engine_->softmax_row_into(x, *run_, out);
  }
  [[nodiscard]] const char* name() const override { return "star-crossbar"; }

 private:
  const SoftmaxEngine* engine_;
  SoftmaxRunState* run_;
};

}  // namespace star::core
