#include "nn/bert.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star::nn {

BertConfig BertConfig::base() { return BertConfig{12, 12, 768, 3072}; }

BertConfig BertConfig::large() { return BertConfig{24, 16, 1024, 4096}; }

BertConfig BertConfig::tiny() { return BertConfig{2, 2, 32, 64}; }

void BertConfig::validate() const {
  require(layers >= 1 && heads >= 1 && d_model >= 1 && d_ff >= 1,
          "BertConfig: all dimensions must be >= 1");
  require(d_model % heads == 0, "BertConfig: d_model must be divisible by heads");
}

EncoderLayerWeights EncoderLayerWeights::random(const BertConfig& cfg, Rng& rng) {
  cfg.validate();
  EncoderLayerWeights w{
      MhaWeights::random(static_cast<std::size_t>(cfg.heads),
                         static_cast<std::size_t>(cfg.d_model),
                         static_cast<std::size_t>(cfg.d_head()), rng),
      Tensor::randn(static_cast<std::size_t>(cfg.d_model),
                    static_cast<std::size_t>(cfg.d_ff), rng, 0.0,
                    1.0 / std::sqrt(static_cast<double>(cfg.d_model))),
      Tensor::randn(static_cast<std::size_t>(cfg.d_ff),
                    static_cast<std::size_t>(cfg.d_model), rng, 0.0,
                    1.0 / std::sqrt(static_cast<double>(cfg.d_ff)))};
  return w;
}

}  // namespace star::nn
