#include "nn/attention.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star::nn {

namespace {

/// Scatter one (d_model x d_k) head's worth of rng draws (row-major, the
/// historical Tensor::randn order) into flat columns [h*d_k, (h+1)*d_k).
void fill_head(Tensor& flat, std::size_t h, std::size_t d_model, std::size_t d_k,
               Rng& rng, double stddev) {
  for (std::size_t r = 0; r < d_model; ++r) {
    for (std::size_t c = 0; c < d_k; ++c) {
      flat.at(r, h * d_k + c) = rng.normal(0.0, stddev);
    }
  }
}

}  // namespace

MhaWeights MhaWeights::random(std::size_t heads, std::size_t d_model, std::size_t d_k,
                              Rng& rng) {
  require(heads >= 1 && d_model >= 1 && d_k >= 1, "MhaWeights::random: bad dims");
  MhaWeights w;
  w.heads = heads;
  w.d_k = d_k;
  w.wq = Tensor(d_model, heads * d_k);
  w.wk = Tensor(d_model, heads * d_k);
  w.wv = Tensor(d_model, heads * d_k);
  // Xavier-style scale keeps score magnitudes realistic. The draw order is
  // the historical per-head sequence (wq[h], wk[h], wv[h] per head, then
  // wo), so existing weight streams reproduce value-for-value.
  const double proj_std = 1.0 / std::sqrt(static_cast<double>(d_model));
  for (std::size_t h = 0; h < heads; ++h) {
    fill_head(w.wq, h, d_model, d_k, rng, proj_std);
    fill_head(w.wk, h, d_model, d_k, rng, proj_std);
    fill_head(w.wv, h, d_model, d_k, rng, proj_std);
  }
  w.wo = Tensor::randn(heads * d_k, d_model, rng, 0.0, proj_std);
  return w;
}

}  // namespace star::nn
