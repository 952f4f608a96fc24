// Arena-backed tensor workspaces and allocation-free fused kernels.
//
// A warm functional request must allocate ZERO heap memory end-to-end.
// This header provides the three pieces that make that possible:
//
//  * Workspace — a bump allocator over one contiguous double buffer, sized
//    once (lazily grown while cold) and reused request after request. An
//    alloc() is a pointer bump; mark()/rewind() reclaim per-layer scratch;
//    reset() recycles the whole arena for the next request.
//  * TensorView / ConstTensorView — non-owning strided 2-D views over
//    arena (or Tensor) storage, so column slices of a fused SoA weight
//    block or of a shared Q/K/V buffer are first-class operands.
//  * *_into kernels — the one entry point of each functional op (matmul,
//    transposed-operand matmul, scale, add, layer norm, GELU, one
//    attention head, multi-head attention, encoder layer), writing into
//    caller views. Softmax rows go through nn::RowSoftmaxInto. Attention
//    is streamed: each head's rows run score row -> softmax -> context row
//    in reference order (heads, then rows, ascending), so its scratch is
//    linear in L and no L x L matrix is ever built. The output bits are
//    the repo's payload contract: every matmul element accumulates over
//    ascending k and skips a zero left operand, and layer norm uses util
//    mean/stddev. The plain-loop test reference
//    (tests/support/encoder_ref.hpp) and the cross-build goldens
//    (tests/golden/payload_hashes.csv) pin them.
//
// Aliasing rules: add_into(a, b, out) may alias b/out (per-element read
// happens before the write at the same index); layer_norm_into may run in
// place (row statistics are read before any element is written). matmul
// outputs must not alias either input.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"

namespace star::nn {

/// Non-owning strided read-only 2-D view (row r starts at data + r*stride).
struct ConstTensorView {
  const double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data + r * stride, cols};
  }
  /// Column slice [c0, c0 + n) — same storage, same stride.
  [[nodiscard]] ConstTensorView block_cols(std::size_t c0, std::size_t n) const;
};

/// Non-owning strided mutable 2-D view.
struct TensorView {
  double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  [[nodiscard]] double& at(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
  [[nodiscard]] std::span<double> row(std::size_t r) const {
    return {data + r * stride, cols};
  }
  [[nodiscard]] ConstTensorView block_cols(std::size_t c0, std::size_t n) const;
  // NOLINTNEXTLINE(google-explicit-constructor): views decay like pointers.
  operator ConstTensorView() const { return {data, rows, cols, stride}; }
};

[[nodiscard]] ConstTensorView view_of(const Tensor& t);
[[nodiscard]] TensorView view_of(Tensor& t);

/// Bump allocator over one contiguous double buffer.
///
/// Discipline: require_capacity() (which MAY reallocate, discarding the
/// contents) is only legal while no views into the arena are live — size
/// before slicing. alloc()
/// never grows; it asserts instead, so an undersized arena fails loudly in
/// every build type rather than silently invalidating live views.
class Workspace {
 public:
  Workspace() = default;

  /// Grow the backing buffer to at least `doubles` capacity. Cold-path
  /// only (allocates on growth); a no-op once the high-water mark is
  /// reached, which is what makes warm requests allocation-free.
  void require_capacity(std::size_t doubles);

  /// Recycle the whole arena (capacity kept) for the next request.
  void reset() { used_ = 0; }

  /// Current bump offset; pair with rewind() to reclaim scratch.
  [[nodiscard]] std::size_t mark() const { return used_; }
  void rewind(std::size_t m);

  /// Bump-allocate `doubles` values. Asserts capacity — never grows.
  [[nodiscard]] double* alloc(std::size_t doubles);

  /// Bump-allocate a contiguous rows x cols view (stride == cols).
  [[nodiscard]] TensorView alloc_view(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::vector<double> buf_;
  std::size_t used_ = 0;
};

// --- kernels ---

/// out = a * b. Zero-fills out, then accumulates in ikj order: each output
/// element sums over ascending k, skipping a(i,k) == 0.0. out must not
/// alias either input.
void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// out = a * b^T without materializing the transpose (b^T passes through a
/// fixed 32 x 64 stack tile, so no allocation); per-element accumulation
/// order matches matmul_into(a, transposed(b)) exactly.
void matmul_transb_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Element-wise in-place scale.
void scale_inplace(TensorView x, double k);

/// out = a + b element-wise; b and out may alias.
void add_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Row-wise layer normalisation, gain/bias folded to 1/0:
/// (x - mean) / sqrt(stddev^2 + eps). In-place (out == x) is safe.
void layer_norm_into(ConstTensorView x, TensorView out, double eps = 1e-12);

/// Element-wise exact GELU in place: x * Phi(x).
void gelu_inplace(TensorView x);

/// One attention head, softmax(q k^T / sqrt(d_k)) v, streamed row by row
/// into a caller view: k^T is transposed once into arena scratch, then
/// each query row in ascending order builds its score row (scaled at the
/// store), runs it through `softmax_impl` and writes its context row
/// straight into `out`. Arena scratch is d_k * k.rows + 2 * k.rows
/// doubles, rewound before returning; no k.rows x k.rows matrix exists.
/// Each element rounds exactly as matmul_into + scale_inplace +
/// matmul_into over whole matrices would (ascending k, zero skip, +0.0
/// start). `out` must not alias an input.
void scaled_dot_attention_into(ConstTensorView q, ConstTensorView k, ConstTensorView v,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out);

/// Multi-head attention into a caller view, with every intermediate (fused
/// Q/K/V, context, the per-head rows of scaled_dot_attention_into) in
/// arena scratch that is rewound before returning: heads in ascending
/// order, rows ascending within a head (the fault-RNG order), contexts
/// concatenated and projected by Wo.
void multi_head_attention_into(ConstTensorView x, const MhaWeights& w,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out);

/// One encoder layer into a caller view:
/// y = LN(x + MHA(x)); out = LN(y + FF2(gelu(FF1(y)))). `out` may alias
/// the storage `x` was read from in a ping-pong chain — the final
/// layer_norm reads its summed operand, not x.
void encoder_layer_forward_into(ConstTensorView x, const EncoderLayerWeights& w,
                                RowSoftmaxInto& softmax_impl, Workspace& ws,
                                TensorView out);

/// Arena sizing rule: the exact peak doubles a full encoder-layer chain
/// needs at sequence length <= max_seq_len, linear in L — two L x d_model
/// ping-pong buffers for the layer chain, the L x d_model attention
/// residual, then the larger of the attention scratch (fused Q/K/V and
/// context, 4 L x d_model, plus one head's d_k x L K^T and two L-long
/// rows) and the FFN scratch (L x d_ff + L x d_model). Stack-depth
/// independent: every layer reuses the same scratch via mark()/rewind().
[[nodiscard]] std::size_t encoder_workspace_doubles(const BertConfig& bert,
                                                    std::size_t max_seq_len);

}  // namespace star::nn
