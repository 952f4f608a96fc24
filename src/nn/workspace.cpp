#include "nn/workspace.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::nn {

ConstTensorView ConstTensorView::block_cols(std::size_t c0, std::size_t n) const {
  STAR_ASSERT(c0 + n <= cols, "ConstTensorView::block_cols: slice out of range");
  return {data + c0, rows, n, stride};
}

ConstTensorView TensorView::block_cols(std::size_t c0, std::size_t n) const {
  STAR_ASSERT(c0 + n <= cols, "TensorView::block_cols: slice out of range");
  return {data + c0, rows, n, stride};
}

ConstTensorView view_of(const Tensor& t) {
  return {t.flat().data(), t.rows(), t.cols(), t.cols()};
}

TensorView view_of(Tensor& t) {
  return {t.flat().data(), t.rows(), t.cols(), t.cols()};
}

void Workspace::require_capacity(std::size_t doubles) {
  if (buf_.size() < doubles) {
    // Release the old buffer before taking the larger one: no view can
    // reach its contents any more, so copying them (what resize() does)
    // is waste, and holding both at once raises the peak RSS by the old
    // size and leaves it behind as an allocator hole.
    buf_ = std::vector<double>();
    buf_.resize(doubles);
  }
}

void Workspace::rewind(std::size_t m) {
  STAR_ASSERT(m <= used_, "Workspace::rewind: mark beyond bump offset");
  used_ = m;
}

// STAR_HOT
double* Workspace::alloc(std::size_t doubles) {
  STAR_ASSERT(used_ + doubles <= buf_.size(),
              "Workspace::alloc: arena undersized (call require_capacity "
              "before taking views)");
  double* p = buf_.data() + used_;
  used_ += doubles;
  return p;
}

// STAR_HOT
TensorView Workspace::alloc_view(std::size_t rows, std::size_t cols) {
  return {alloc(rows * cols), rows, cols, cols};
}

// STAR_HOT
void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.cols == b.rows, "matmul_into: inner dimension mismatch");
  STAR_ASSERT(out.rows == a.rows && out.cols == b.cols,
              "matmul_into: output shape mismatch");
  for (std::size_t i = 0; i < out.rows; ++i) {
    double* orow = out.data + i * out.stride;
    for (std::size_t j = 0; j < out.cols; ++j) {
      orow[j] = 0.0;
    }
  }
  // ikj order, zero-operand skip included: each output element
  // accumulates over ascending k, so a column block of a fused SoA weight
  // block is bit-identical to the per-head product it replaces.
  for (std::size_t i = 0; i < a.rows; ++i) {
    const double* arow = a.data + i * a.stride;
    double* orow = out.data + i * out.stride;
    for (std::size_t k = 0; k < a.cols; ++k) {
      const double av = arow[k];
      if (av == 0.0) {
        continue;
      }
      const double* brow = b.data + k * b.stride;
      for (std::size_t j = 0; j < out.cols; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

namespace {

constexpr std::size_t kTileK = 32;
constexpr std::size_t kTileJ = 64;

/// Output columns [jj, jj + W) of one row against one transposed tile:
/// the W partial sums stay in registers across the ascending-k sweep and
/// touch the output row once each way. The zero-operand skip and the
/// k order are matmul_into's, so every element rounds exactly as there.
template <std::size_t W>
void accumulate_block(const double* arow, std::size_t nk,
                      const double (&tile)[kTileK][kTileJ], std::size_t jj,
                      double* orow) {
  double acc[W];
  for (std::size_t c = 0; c < W; ++c) {
    acc[c] = orow[jj + c];
  }
  for (std::size_t kk = 0; kk < nk; ++kk) {
    const double av = arow[kk];
    if (av == 0.0) {
      continue;
    }
    const double* trow = tile[kk] + jj;
    for (std::size_t c = 0; c < W; ++c) {
      acc[c] += av * trow[c];
    }
  }
  for (std::size_t c = 0; c < W; ++c) {
    orow[jj + c] = acc[c];
  }
}

}  // namespace

// STAR_HOT
void matmul_transb_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.cols == b.cols, "matmul_transb_into: inner dimension mismatch");
  STAR_ASSERT(out.rows == a.rows && out.cols == b.rows,
              "matmul_transb_into: output shape mismatch");
  for (std::size_t i = 0; i < out.rows; ++i) {
    double* orow = out.data + i * out.stride;
    for (std::size_t j = 0; j < out.cols; ++j) {
      orow[j] = 0.0;
    }
  }
  // b^T(k, j) == b(j, k). A kTileK x kTileJ block of b^T is transposed
  // once into a stack tile and reused by every row of a, so the row kernel
  // reads contiguous doubles instead of striding a cache line per MAC.
  // k-tiles run in ascending order and k ascends within a tile, so each
  // output element accumulates over ascending k with the same zero-operand
  // skip as matmul_into(a, transposed(b)): bit-identical.
  double tile[kTileK][kTileJ];
  for (std::size_t j0 = 0; j0 < b.rows; j0 += kTileJ) {
    const std::size_t nj = std::min(kTileJ, b.rows - j0);
    for (std::size_t k0 = 0; k0 < a.cols; k0 += kTileK) {
      const std::size_t nk = std::min(kTileK, a.cols - k0);
      for (std::size_t jj = 0; jj < nj; ++jj) {
        const double* brow = b.data + (j0 + jj) * b.stride + k0;
        for (std::size_t kk = 0; kk < nk; ++kk) {
          tile[kk][jj] = brow[kk];
        }
      }
      for (std::size_t i = 0; i < a.rows; ++i) {
        const double* arow = a.data + i * a.stride + k0;
        double* orow = out.data + i * out.stride + j0;
        std::size_t jj = 0;
        for (; jj + 16 <= nj; jj += 16) {
          accumulate_block<16>(arow, nk, tile, jj, orow);
        }
        if (jj + 8 <= nj) {
          accumulate_block<8>(arow, nk, tile, jj, orow);
          jj += 8;
        }
        if (jj + 4 <= nj) {
          accumulate_block<4>(arow, nk, tile, jj, orow);
          jj += 4;
        }
        for (; jj < nj; ++jj) {
          accumulate_block<1>(arow, nk, tile, jj, orow);
        }
      }
    }
  }
}

// STAR_HOT
void scale_inplace(TensorView x, double k) {
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.data + r * x.stride;
    for (std::size_t c = 0; c < x.cols; ++c) {
      row[c] *= k;
    }
  }
}

// STAR_HOT
void add_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.rows == b.rows && a.cols == b.cols && out.rows == a.rows &&
                  out.cols == a.cols,
              "add_into: shape mismatch");
  for (std::size_t r = 0; r < a.rows; ++r) {
    const double* arow = a.data + r * a.stride;
    const double* brow = b.data + r * b.stride;
    double* orow = out.data + r * out.stride;
    for (std::size_t c = 0; c < a.cols; ++c) {
      orow[c] = arow[c] + brow[c];
    }
  }
}

// STAR_HOT
void layer_norm_into(ConstTensorView x, TensorView out, double eps) {
  STAR_ASSERT(out.rows == x.rows && out.cols == x.cols,
              "layer_norm_into: shape mismatch");
  for (std::size_t r = 0; r < x.rows; ++r) {
    const auto row = x.row(r);
    // Row statistics first, then the writes — which is why in-place
    // normalization (out == x) is safe.
    const double m = mean(row);
    const double sd = stddev(row);
    const double inv = 1.0 / std::sqrt(sd * sd + eps);
    const auto orow = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      orow[c] = (row[c] - m) * inv;
    }
  }
}

// STAR_HOT
void gelu_inplace(TensorView x) {
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.data + r * x.stride;
    for (std::size_t c = 0; c < x.cols; ++c) {
      row[c] = 0.5 * row[c] * (1.0 + std::erf(row[c] / std::sqrt(2.0)));
    }
  }
}

namespace {

/// Output columns [0, W) of one streamed row against b (k x W, row
/// stride `stride`): out[c] = (sum over ascending k of a[k] * b(k, c)) *
/// scale. The W partial sums start at +0.0 and stay in registers over
/// the k sweep; a zero a[k] is skipped. That is matmul_into's rule
/// (zero-filled output, ascending k, same skip), so each element rounds
/// exactly as there; the scale is one multiply at the store, as
/// scale_inplace applies it afterwards, and x * 1.0 is x bit for bit.
template <std::size_t W>
void row_block(const double* a, std::size_t nk, const double* b, std::size_t stride,
               double scale, double* out) {
  double acc[W];
  for (std::size_t c = 0; c < W; ++c) {
    acc[c] = 0.0;
  }
  for (std::size_t k = 0; k < nk; ++k) {
    const double av = a[k];
    if (av == 0.0) {
      continue;
    }
    const double* brow = b + k * stride;
    for (std::size_t c = 0; c < W; ++c) {
      acc[c] += av * brow[c];
    }
  }
  for (std::size_t c = 0; c < W; ++c) {
    out[c] = acc[c] * scale;
  }
}

/// out = (a * b) * scale for one row a (b.rows values): 16-, 8- and
/// 4-column register blocks, then single columns.
void row_product(const double* a, ConstTensorView b, double scale, double* out) {
  std::size_t j = 0;
  for (; j + 16 <= b.cols; j += 16) {
    row_block<16>(a, b.rows, b.data + j, b.stride, scale, out + j);
  }
  if (j + 8 <= b.cols) {
    row_block<8>(a, b.rows, b.data + j, b.stride, scale, out + j);
    j += 8;
  }
  if (j + 4 <= b.cols) {
    row_block<4>(a, b.rows, b.data + j, b.stride, scale, out + j);
    j += 4;
  }
  for (; j < b.cols; ++j) {
    row_block<1>(a, b.rows, b.data + j, b.stride, scale, out + j);
  }
}

}  // namespace

// STAR_HOT
void scaled_dot_attention_into(ConstTensorView q, ConstTensorView k, ConstTensorView v,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out) {
  STAR_ASSERT(q.cols == k.cols, "scaled_dot_attention_into: Q/K width mismatch");
  STAR_ASSERT(k.rows == v.rows, "scaled_dot_attention_into: K/V length mismatch");
  STAR_ASSERT(out.rows == q.rows && out.cols == v.cols,
              "scaled_dot_attention_into: output shape mismatch");
  const std::size_t d_k = q.cols;
  const std::size_t len = k.rows;
  const std::size_t scratch_mark = ws.mark();

  // K^T once (d_k x len), so the score row kernel reads contiguous
  // doubles; then one score row and one probability row, reused by every
  // query row.
  const TensorView kt = ws.alloc_view(d_k, len);
  for (std::size_t j = 0; j < len; ++j) {
    for (std::size_t c = 0; c < d_k; ++c) {
      kt.at(c, j) = k.at(j, c);
    }
  }
  double* scores = ws.alloc(len);
  double* probs = ws.alloc(len);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_k));
  // Rows in ascending order: the fault-RNG draw order of the payload
  // contract. Each row goes score -> softmax -> context before the next.
  for (std::size_t r = 0; r < q.rows; ++r) {
    row_product(q.data + r * q.stride, kt, scale, scores);
    softmax_impl(std::span<const double>(scores, len), std::span<double>(probs, len));
    row_product(probs, v, 1.0, out.data + r * out.stride);
  }
  ws.rewind(scratch_mark);
}

// STAR_HOT
void multi_head_attention_into(ConstTensorView x, const MhaWeights& w,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out) {
  const std::size_t heads = w.heads;
  const std::size_t d_k = w.d_k;
  STAR_ASSERT(heads >= 1, "multi_head_attention_into: no heads");
  STAR_ASSERT(x.cols == w.wq.rows(), "multi_head_attention_into: d_model mismatch");
  STAR_ASSERT(out.rows == x.rows && out.cols == w.wo.cols(),
              "multi_head_attention_into: output shape mismatch");

  const std::size_t seq = x.rows;
  const std::size_t d_qkv = heads * d_k;
  const std::size_t scratch_mark = ws.mark();

  // Fused SoA projections: one matmul per operand produces EVERY head's
  // slice (column block h*d_k..) bit-identical to the per-head products.
  const TensorView q = ws.alloc_view(seq, d_qkv);
  const TensorView k = ws.alloc_view(seq, d_qkv);
  const TensorView v = ws.alloc_view(seq, d_qkv);
  matmul_into(x, view_of(w.wq), q);
  matmul_into(x, view_of(w.wk), k);
  matmul_into(x, view_of(w.wv), v);

  // Heads in ascending order, each streamed row by row; the context lands
  // directly in its concat column block.
  const TensorView ctx = ws.alloc_view(seq, d_qkv);
  for (std::size_t h = 0; h < heads; ++h) {
    const TensorView ctx_h{ctx.data + h * d_k, seq, d_k, ctx.stride};
    scaled_dot_attention_into(q.block_cols(h * d_k, d_k), k.block_cols(h * d_k, d_k),
                              v.block_cols(h * d_k, d_k), softmax_impl, ws, ctx_h);
  }
  matmul_into(ctx, view_of(w.wo), out);
  ws.rewind(scratch_mark);
}

// STAR_HOT
void encoder_layer_forward_into(ConstTensorView x, const EncoderLayerWeights& w,
                                RowSoftmaxInto& softmax_impl, Workspace& ws,
                                TensorView out) {
  const std::size_t seq = x.rows;
  const std::size_t d_model = x.cols;
  STAR_ASSERT(out.rows == seq && out.cols == d_model,
              "encoder_layer_forward_into: output shape mismatch");

  const std::size_t layer_mark = ws.mark();
  // attn <- MHA(x); then in place: attn <- LN(x + attn) == y.
  const TensorView attn = ws.alloc_view(seq, d_model);
  multi_head_attention_into(x, w.mha, softmax_impl, ws, attn);
  add_into(x, attn, attn);
  layer_norm_into(attn, attn);

  // FFN: ff <- gelu(y * W_ff1) * W_ff2; then ff <- y + ff, out <- LN(ff).
  const TensorView ff1 = ws.alloc_view(seq, w.w_ff1.cols());
  matmul_into(attn, view_of(w.w_ff1), ff1);
  gelu_inplace(ff1);
  const TensorView ff = ws.alloc_view(seq, d_model);
  matmul_into(ff1, view_of(w.w_ff2), ff);
  add_into(attn, ff, ff);
  layer_norm_into(ff, out);
  ws.rewind(layer_mark);
}

std::size_t encoder_workspace_doubles(const BertConfig& bert,
                                      std::size_t max_seq_len) {
  bert.validate();
  const auto seq = max_seq_len;
  const auto d_model = static_cast<std::size_t>(bert.d_model);
  const auto d_ff = static_cast<std::size_t>(bert.d_ff);
  const auto d_k = static_cast<std::size_t>(bert.d_head());
  // Ping-pong chain buffers + the attention residual, then the larger of
  // the two scratch phases that follow it: attention (fused Q/K/V, the
  // context, one head's K^T and its score and probability rows) and the
  // FFN (both intermediates). Each phase is rewound before the next, so
  // this is the exact peak, and it is stack-depth independent.
  const std::size_t chain = 2 * seq * d_model;
  const std::size_t residual = seq * d_model;
  const std::size_t mha = 4 * seq * d_model + d_k * seq + 2 * seq;
  const std::size_t ffn = seq * d_ff + seq * d_model;
  return chain + residual + std::max(mha, ffn);
}

}  // namespace star::nn
