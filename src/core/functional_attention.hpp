// End-to-end functional attention on STAR hardware models: the score and
// context matmuls run through the quantisation-aware MatMul engine and the
// softmax through the crossbar SoftmaxEngine — the full silicon datapath,
// numerically. Used by integration tests and accuracy studies; the
// analytic performance face lives in StarAccelerator.
#pragma once

#include "core/matmul_engine.hpp"
#include "core/softmax_engine.hpp"
#include "nn/tensor.hpp"

namespace star::core {

struct FunctionalAttentionResult {
  nn::Tensor output;
  nn::Tensor probabilities;  ///< post-softmax attention weights (L_q x L_k)
};

/// softmax(Q K^T / sqrt(d_k)) V with every stage on the hardware models.
/// q: (L_q x d_k), k: (L_k x d_k), v: (L_k x d_v). The engines are shared
/// read-only hardware models; every per-run mutation lands in the caller's
/// `run` state, so many sequences may run concurrently against the same
/// two engines, one SoftmaxRunState each.
FunctionalAttentionResult attention_on_star(const nn::Tensor& q, const nn::Tensor& k,
                                            const nn::Tensor& v,
                                            const MatmulEngine& matmul,
                                            const SoftmaxEngine& softmax_engine,
                                            SoftmaxRunState& run);

}  // namespace star::core
