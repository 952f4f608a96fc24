// Plain-loop reference encoder: the oracle the nn::*_into kernels and the
// served encoder path are pinned to, bit for bit.
//
// Written independently of nn/workspace.cpp and calling none of its
// kernels. It is bit-identical to them by construction, because it
// performs the same floating-point operations in the same order:
//  * matmul: ikj loops, each output element accumulating over ascending k
//    and skipping a zero left operand;
//  * scores: Q times a materialised K^T, then every element multiplied by
//    1 / sqrt(d_k);
//  * per-head projections through head h's own column slice of the flat
//    weight blocks (the fused kernel computes every head in one product);
//  * layer norm from util mean/stddev: (x - mean) / sqrt(stddev^2 + eps);
//  * softmax rows in ascending order through the caller's RowSoftmaxInto,
//    so a STAR engine's fault stream is drawn in the served order.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"
#include "util/math.hpp"

namespace star::testing_ref {

/// a (n x k) * b (k x m).
inline nn::Tensor matmul(const nn::Tensor& a, const nn::Tensor& b) {
  nn::Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double av = a.at(i, k);
      if (av == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out.at(i, j) += av * b.at(k, j);
      }
    }
  }
  return out;
}

inline nn::Tensor add(const nn::Tensor& a, const nn::Tensor& b) {
  nn::Tensor out(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      out.at(r, c) = a.at(r, c) + b.at(r, c);
    }
  }
  return out;
}

inline nn::Tensor layer_norm(const nn::Tensor& x, double eps = 1e-12) {
  nn::Tensor out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double m = mean(x.row(r));
    const double sd = stddev(x.row(r));
    const double inv = 1.0 / std::sqrt(sd * sd + eps);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = (x.at(r, c) - m) * inv;
    }
  }
  return out;
}

/// Exact GELU, x * Phi(x), element-wise.
inline nn::Tensor gelu(const nn::Tensor& x) {
  nn::Tensor out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double v = x.at(r, c);
      out.at(r, c) = 0.5 * v * (1.0 + std::erf(v / std::sqrt(2.0)));
    }
  }
  return out;
}

/// Dense copy of columns [c0, c0 + n).
inline nn::Tensor columns(const nn::Tensor& t, std::size_t c0, std::size_t n) {
  nn::Tensor out(t.rows(), n);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      out.at(r, c) = t.at(r, c0 + c);
    }
  }
  return out;
}

/// softmax(Q K^T / sqrt(d_k)) V for one head.
inline nn::Tensor attention_head(const nn::Tensor& q, const nn::Tensor& k,
                                 const nn::Tensor& v, nn::RowSoftmaxInto& softmax) {
  nn::Tensor scores = matmul(q, k.transposed());
  const double scale = 1.0 / std::sqrt(static_cast<double>(q.cols()));
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    for (std::size_t c = 0; c < scores.cols(); ++c) {
      scores.at(r, c) *= scale;
    }
  }
  nn::Tensor probs(scores.rows(), scores.cols());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    softmax(scores.row(r), probs.row(r));
  }
  return matmul(probs, v);
}

/// Multi-head attention: x (L x d_model) -> (L x d_model).
inline nn::Tensor multi_head_attention(const nn::Tensor& x, const nn::MhaWeights& w,
                                       nn::RowSoftmaxInto& softmax) {
  const std::size_t d_k = w.d_k;
  nn::Tensor concat(x.rows(), w.heads * d_k);
  for (std::size_t h = 0; h < w.heads; ++h) {
    const nn::Tensor q = matmul(x, columns(w.wq, h * d_k, d_k));
    const nn::Tensor k = matmul(x, columns(w.wk, h * d_k, d_k));
    const nn::Tensor v = matmul(x, columns(w.wv, h * d_k, d_k));
    const nn::Tensor head = attention_head(q, k, v, softmax);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < d_k; ++c) {
        concat.at(r, h * d_k + c) = head.at(r, c);
      }
    }
  }
  return matmul(concat, w.wo);
}

/// One encoder layer: y = LN(x + MHA(x)); out = LN(y + FF2(gelu(FF1(y)))).
inline nn::Tensor encoder_layer(const nn::Tensor& x, const nn::EncoderLayerWeights& w,
                                nn::RowSoftmaxInto& softmax) {
  const nn::Tensor y = layer_norm(add(x, multi_head_attention(x, w.mha, softmax)));
  const nn::Tensor ff = matmul(gelu(matmul(y, w.w_ff1)), w.w_ff2);
  return layer_norm(add(y, ff));
}

/// What BatchEncoderSim::run_encoder_one computes: `num_layers` chained
/// layers of `sim`'s weights on its STAR softmax engine, one fault stream
/// (seeded with `engine_seed`) across the whole chain.
inline nn::Tensor encoder_on_star(const core::BatchEncoderSim& sim, const nn::Tensor& input,
                                  std::uint64_t engine_seed, std::int64_t num_layers) {
  core::SoftmaxRunState run(engine_seed);
  core::SoftmaxEngineRowRef softmax(sim.softmax_engine(), run);
  nn::Tensor x = input;
  for (std::int64_t l = 0; l < num_layers; ++l) {
    x = encoder_layer(x, sim.layer_weights(l), softmax);
  }
  return x;
}

}  // namespace star::testing_ref
