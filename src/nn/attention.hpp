// Multi-head attention weights. The attention itself runs through
// nn::multi_head_attention_into (nn/workspace.hpp) with a pluggable
// nn::RowSoftmaxInto, so the same code runs on the reference, the STAR
// crossbar engine, Softermax and the CMOS baseline — which is how the
// accuracy side of the paper's trade-off is evaluated.
#pragma once

#include <cstddef>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace star::nn {

/// Weights of one multi-head attention block, stored SoA: each projection
/// is ONE flat weight block (d_model x heads * d_k) whose column slice
/// [h*d_k, (h+1)*d_k) is head h's matrix. One fused X * Wq matmul then
/// produces every head's Q in a single pass; each output element still
/// accumulates over ascending k, so column block h equals the product with
/// head h's matrix alone.
struct MhaWeights {
  std::size_t heads = 0;
  std::size_t d_k = 0;
  Tensor wq;  ///< (d_model x heads * d_k), head h = columns [h*d_k, (h+1)*d_k)
  Tensor wk;
  Tensor wv;
  Tensor wo;  ///< (heads * d_k x d_model)

  /// Same RNG draw order as the historical per-head layout (per head:
  /// wq[h] row-major, wk[h], wv[h]; then wo), scattered into the flat
  /// blocks — weight VALUES are unchanged for any given rng stream.
  static MhaWeights random(std::size_t heads, std::size_t d_model, std::size_t d_k,
                           Rng& rng);
};

}  // namespace star::nn
