#include "core/functional_attention.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star::core {

FunctionalAttentionResult attention_on_star(const nn::Tensor& q, const nn::Tensor& k,
                                            const nn::Tensor& v,
                                            const MatmulEngine& matmul,
                                            const SoftmaxEngine& softmax_engine,
                                            SoftmaxRunState& run) {
  require(q.cols() == k.cols(), "attention_on_star: d_k mismatch between Q and K");
  require(k.rows() == v.rows(), "attention_on_star: K/V length mismatch");

  // Score matmul on the crossbar engine (K^T is the resident matrix).
  nn::Tensor scores = matmul.multiply(q, k.transposed());
  scores.scale(1.0 / std::sqrt(static_cast<double>(q.cols())));

  // Row softmax on the crossbar engine, straight into the result.
  FunctionalAttentionResult res{nn::Tensor(), nn::Tensor(q.rows(), k.rows())};
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    softmax_engine.softmax_row_into(scores.row(r), run, res.probabilities.row(r));
  }

  // Context matmul on the crossbar engine (V resident).
  res.output = matmul.multiply(res.probabilities, v);
  return res;
}

}  // namespace star::core
