// BERT model configuration and encoder layer: the evaluation workload of
// the paper (BERT-base on CNEWS/MRPC/CoLA).
#pragma once

#include <cstdint>

#include "nn/attention.hpp"
#include "nn/tensor.hpp"

namespace star::nn {

struct BertConfig {
  std::int64_t layers = 12;
  std::int64_t heads = 12;
  std::int64_t d_model = 768;
  std::int64_t d_ff = 3072;

  [[nodiscard]] std::int64_t d_head() const { return d_model / heads; }

  /// BERT-base, the paper's evaluation model.
  static BertConfig base();
  /// BERT-large, for scaling studies.
  static BertConfig large();
  /// A small configuration for fast functional tests.
  static BertConfig tiny();

  void validate() const;
};

/// Weights of one encoder layer (attention + FFN). The layer itself,
/// y = LN(x + MHA(x)); out = LN(y + FF2(gelu(FF1(y)))), runs through
/// nn::encoder_layer_forward_into (nn/workspace.hpp).
struct EncoderLayerWeights {
  MhaWeights mha;
  Tensor w_ff1;  ///< (d_model x d_ff)
  Tensor w_ff2;  ///< (d_ff x d_model)

  static EncoderLayerWeights random(const BertConfig& cfg, Rng& rng);
};

}  // namespace star::nn
