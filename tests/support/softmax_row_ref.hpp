// Reference softmax-engine row: the staged datapath the fused
// SoftmaxEngine::forward_codes_into replaced, kept as the oracle that pins
// it bit for bit (fault-RNG stream included).
//
// Stage by stage, each through the component's standalone checked API:
// CamSubCrossbar::find_max_into -> subtract_into -> per element
// CamCrossbar::search_row / LutCrossbar::word_at / CounterArray::
// accumulate_row -> the summation dot product -> Divider::divide. The
// components are built from the StarConfig with the engine's geometry:
// a 2^b-row CAM/SUB, 2^(b-1)-row exp CAM (row r stores r) and LUT (row r
// holds round(e^(-r * res) * 2^lut_frac)), one counter per exp row of
// bits_for(max_seq_len) bits, and a divider of
// min(31, lut_frac + 1 + bits_for(max_seq_len)) bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "hw/counter.hpp"
#include "hw/divider.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/accuracy_proxy.hpp"
#include "xbar/cam.hpp"
#include "xbar/cam_sub.hpp"
#include "xbar/lut.hpp"

namespace star::testing_ref {

class SoftmaxRowRef {
 public:
  static constexpr int kProbFracBits = 15;

  explicit SoftmaxRowRef(const core::StarConfig& cfg)
      : cfg_(cfg),
        bits_(cfg.softmax_format.total_bits()),
        exp_rows_(1 << (bits_ - 1)),
        lut_frac_(workload::default_lut_frac_bits(cfg.softmax_format)),
        cam_sub_(cfg.tech, cfg.device, bits_),
        exp_cam_(cfg.tech, cfg.device, exp_rows_, bits_),
        exp_lut_(cfg.tech, cfg.device, exp_rows_, lut_frac_ + 1),
        counters_(cfg.tech, exp_rows_, bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
        divider_(cfg.tech,
                 std::min(31, lut_frac_ + 1 +
                                  bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
                 9) {
    const double res = cfg.softmax_format.resolution();
    const double scale = std::ldexp(1.0, lut_frac_);
    std::vector<std::int64_t> cam_codes(static_cast<std::size_t>(exp_rows_));
    std::vector<std::int64_t> lut_words(cam_codes.size());
    for (std::size_t r = 0; r < cam_codes.size(); ++r) {
      cam_codes[r] = static_cast<std::int64_t>(r);
      lut_words[r] = static_cast<std::int64_t>(
          round_half_even(std::exp(-static_cast<double>(r) * res) * scale));
    }
    exp_cam_.fill(cam_codes);
    exp_lut_.fill(lut_words);
  }

  /// Probability codes of one operand-code row; throws SimulationError
  /// when every CAM/SUB search misses.
  std::vector<std::int64_t> row(std::span<const std::int64_t> codes, Rng& rng) {
    xbar::MaxFindResult mf;
    cam_sub_.find_max_into(codes, cfg_.cam_miss_prob, rng, mf);
    std::vector<std::int64_t> diffs(codes.size());
    cam_sub_.subtract_into(mf, codes, diffs);

    counters_.reset();
    std::vector<std::int64_t> e_words(codes.size(), 0);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      const std::int64_t mag = -diffs[i];
      if (mag < exp_rows_) {
        const int r = exp_cam_.search_row(mag, cfg_.cam_miss_prob, rng);
        if (r >= 0) {
          e_words[i] = exp_lut_.word_at(r);
          counters_.accumulate_row(r);
        }
      }
    }

    last_denom_ = 0;
    const auto& counts = counters_.counts();
    for (std::size_t r = 0; r < counts.size(); ++r) {
      last_denom_ += counts[r] * exp_lut_.word_at(static_cast<int>(r));
    }

    std::vector<std::int64_t> probs(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      probs[i] = divider_.divide(e_words[i], last_denom_, kProbFracBits);
    }
    return probs;
  }

  /// Summation output of the last completed row.
  [[nodiscard]] std::int64_t last_denom() const { return last_denom_; }
  /// The divider's saturated code (what a den == 0 row reads).
  [[nodiscard]] std::int64_t saturated_code() const {
    return (std::int64_t{1} << divider_.bits()) - 1;
  }

 private:
  core::StarConfig cfg_;
  int bits_;
  int exp_rows_;
  int lut_frac_;
  xbar::CamSubCrossbar cam_sub_;
  xbar::CamCrossbar exp_cam_;
  xbar::LutCrossbar exp_lut_;
  hw::CounterArray counters_;
  hw::Divider divider_;
  std::int64_t last_denom_ = 0;
};

}  // namespace star::testing_ref
