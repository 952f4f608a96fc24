// Quickstart: build a STAR softmax engine, run one row through the crossbar
// datapath, and compare against the exact softmax.
//
//   $ ./quickstart
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"

int main() {
  using namespace star;

  // 1. Configure the engine. kMrpcFormat is the paper's 9-bit format
  //    (6 integer bits, 3 fraction bits), which sizes the CAM/SUB crossbar
  //    at 512x18 and the CAM/LUT/VMM crossbars at 256 rows.
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  core::SoftmaxEngine engine(cfg);

  std::printf("STAR softmax engine (%s operands)\n", cfg.softmax_format.name().c_str());
  std::printf("  CAM/SUB rows: %d   exp CAM/LUT rows: %d   LUT word: %d bits\n",
              1 << cfg.softmax_format.total_bits(), engine.exp_rows(),
              engine.lut_frac_bits() + 1);
  std::printf("  engine area: %s,  leakage: %s\n\n", to_string(engine.area()).c_str(),
              to_string(engine.leakage()).c_str());

  // 2. A row of attention scores (anything in the +/-32 window of Q6.3).
  const std::vector<double> scores{2.1, -0.4, 1.9, -3.0, 0.0, -7.5, 2.2, -1.1};

  // 3. Run it through the crossbar datapath and the exact reference. The
  //    engine is const shared hardware; the fault-RNG stream and datapath
  //    scratch of this run live in a caller-owned SoftmaxRunState.
  core::SoftmaxRunState run;
  std::vector<double> p_star(scores.size());
  std::vector<double> p_exact(scores.size());
  engine.softmax_row_into(scores, run, p_star);
  nn::softmax_into(scores, p_exact);

  std::printf("%8s %12s %12s %12s\n", "score", "exact", "STAR", "abs err");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    std::printf("%8.2f %12.6f %12.6f %12.2e\n", scores[i], p_exact[i], p_star[i],
                std::abs(p_exact[i] - p_star[i]));
  }

  // 4. What did that row cost on the engine?
  const auto stats = engine.compute_row_stats(static_cast<int>(scores.size()));
  std::printf("\nper-row hardware cost (%d elements):\n", stats.elements);
  std::printf("  latency: %s   energy: %s\n", to_string(stats.latency).c_str(),
              to_string(stats.energy).c_str());
  std::printf("  stages: maxfind %s | subtract %s | exp %s | sum %s | divide %s\n",
              to_string(stats.t_maxfind).c_str(), to_string(stats.t_subtract).c_str(),
              to_string(stats.t_exp).c_str(), to_string(stats.t_sum).c_str(),
              to_string(stats.t_divide).c_str());
  return 0;
}
