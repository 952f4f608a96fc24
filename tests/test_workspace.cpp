// Arena-backed hot path: kernel bit-identity against the plain-loop
// reference (tests/support/encoder_ref.hpp), the served encoder against
// the same reference across sequence lengths / stack depths / fault
// streams / thread counts, workspace reuse, and the zero-allocation
// invariant of a warm functional request (AllocCounter-pinned wherever
// STAR_ALLOC_AUDIT is live).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "support/encoder_ref.hpp"
#include "support/softmax_row_ref.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

const nn::BertConfig kTiny = nn::BertConfig::tiny();

// Byte-for-byte comparison (the determinism currency of the repo): exact
// bits, so signed zeros and NaN payloads would fail too.
void expect_bits(const nn::Tensor& ref, nn::ConstTensorView got) {
  ASSERT_EQ(ref.rows(), got.rows);
  ASSERT_EQ(ref.cols(), got.cols);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    for (std::size_t c = 0; c < ref.cols(); ++c) {
      const double a = ref.at(r, c);
      const double b = got.at(r, c);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "bit mismatch at (" << r << ", " << c << "): " << a << " vs " << b;
    }
  }
}

nn::Tensor with_zeros(nn::Tensor t) {
  // Exercise the matmuls' skip-zero-operand branch in both paths.
  t.at(0, 0) = 0.0;
  t.at(t.rows() - 1, t.cols() / 2) = 0.0;
  return t;
}

// ---------- Workspace mechanics ----------

TEST(Workspace, BumpMarkRewindReset) {
  nn::Workspace ws;
  ws.require_capacity(64);
  EXPECT_GE(ws.capacity(), 64u);
  const auto v1 = ws.alloc_view(4, 8);
  EXPECT_EQ(ws.used(), 32u);
  EXPECT_EQ(v1.stride, 8u);
  const std::size_t m = ws.mark();
  (void)ws.alloc(16);
  EXPECT_EQ(ws.used(), 48u);
  ws.rewind(m);
  EXPECT_EQ(ws.used(), 32u);
  const std::size_t cap = ws.capacity();
  ws.reset();
  EXPECT_EQ(ws.used(), 0u);
  EXPECT_EQ(ws.capacity(), cap);  // reset keeps the high-water buffer
}

// ---------- kernels vs the plain-loop reference ----------

TEST(WorkspaceKernels, MatmulIntoBitIdenticalToReference) {
  Rng rng(21);
  const auto a = with_zeros(nn::Tensor::randn(5, 7, rng));
  const auto b = nn::Tensor::randn(7, 4, rng);
  const auto ref = testing_ref::matmul(a, b);

  nn::Workspace ws;
  ws.require_capacity(5 * 4);
  const auto out = ws.alloc_view(5, 4);
  nn::matmul_into(nn::view_of(a), nn::view_of(b), out);
  expect_bits(ref, out);
}

TEST(WorkspaceKernels, MatmulTransbIntoMatchesMaterializedTranspose) {
  Rng rng(22);
  const auto a = with_zeros(nn::Tensor::randn(6, 5, rng));
  const auto b = nn::Tensor::randn(3, 5, rng);  // used as b^T: (5 x 3)
  const auto ref = testing_ref::matmul(a, b.transposed());

  nn::Workspace ws;
  ws.require_capacity(6 * 3);
  const auto out = ws.alloc_view(6, 3);
  nn::matmul_transb_into(nn::view_of(a), nn::view_of(b), out);
  expect_bits(ref, out);
}

TEST(WorkspaceKernels, MatmulTransbIntoBitIdenticalAcrossTileEdges) {
  // The 32 (k) x 64 (j) transpose tile and the row kernel's 16/8/4-column
  // register blocks and scalar tail: output widths and inner sizes below,
  // at and above each edge, with zeros (both signs) in a for the skip
  // branch.
  const std::size_t rows_list[] = {1, 2, 63, 64, 65, 130};
  const std::size_t cols_list[] = {1,  3,  4,  5,  7,  8,  9,  12, 15, 16,
                                   17, 20, 28, 31, 63, 64, 65, 130};
  const std::size_t inner[] = {1, 15, 16, 17, 31, 32, 33, 70};
  Rng rng(0x7A11);
  for (const std::size_t rows : rows_list) {
    for (const std::size_t cols : cols_list) {
      for (const std::size_t k : inner) {
        auto a = nn::Tensor::randn(rows, k, rng);
        for (std::size_t i = 0; i < rows; i += 3) {
          a.at(i, (i * 7) % k) = 0.0;
          a.at(i, (i * 5 + 1) % k) = -0.0;
        }
        // b is read through a strided column slice (stride > cols).
        const auto b_wide = nn::Tensor::randn(cols, k + 3, rng);
        const nn::ConstTensorView b = nn::view_of(b_wide).block_cols(2, k);
        nn::Tensor b_t(k, cols);
        for (std::size_t j = 0; j < cols; ++j) {
          for (std::size_t kk = 0; kk < k; ++kk) {
            b_t.at(kk, j) = b.at(j, kk);
          }
        }
        nn::Tensor ref(rows, cols);
        nn::matmul_into(nn::view_of(a), nn::view_of(b_t), nn::view_of(ref));
        nn::Tensor got(rows, cols);
        nn::matmul_transb_into(nn::view_of(a), b, nn::view_of(got));
        ASSERT_EQ(std::memcmp(ref.flat().data(), got.flat().data(),
                              rows * cols * sizeof(double)),
                  0)
            << rows << "x" << k << " * (" << cols << "x" << k << ")^T";
      }
    }
  }
}

TEST(WorkspaceKernels, LayerNormIntoMatchesAndRunsInPlace) {
  Rng rng(23);
  const auto x = nn::Tensor::randn(8, 16, rng, 5.0, 3.0);
  const auto ref = testing_ref::layer_norm(x);

  nn::Workspace ws;
  ws.require_capacity(2 * 8 * 16);
  const auto out = ws.alloc_view(8, 16);
  nn::layer_norm_into(nn::view_of(x), out);
  expect_bits(ref, out);

  // In place: copy x into an arena view, normalize it onto itself.
  const auto buf = ws.alloc_view(8, 16);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      buf.at(r, c) = x.at(r, c);
    }
  }
  nn::layer_norm_into(buf, buf);
  expect_bits(ref, buf);
}

TEST(WorkspaceKernels, AddIntoToleratesOutAliasingB) {
  Rng rng(24);
  const auto a = nn::Tensor::randn(4, 6, rng);
  const auto b = nn::Tensor::randn(4, 6, rng);
  const auto ref = testing_ref::add(a, b);

  nn::Workspace ws;
  ws.require_capacity(4 * 6);
  const auto acc = ws.alloc_view(4, 6);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      acc.at(r, c) = b.at(r, c);
    }
  }
  nn::add_into(nn::view_of(a), acc, acc);  // out aliases b
  expect_bits(ref, acc);
}

TEST(WorkspaceKernels, MultiHeadAttentionIntoBitIdentical) {
  Rng rng(25);
  const auto w = nn::MhaWeights::random(2, 8, 4, rng);
  const auto x = nn::Tensor::randn(5, 8, rng);

  nn::ExactSoftmaxInto exact;
  const auto ref = testing_ref::multi_head_attention(x, w, exact);

  nn::Workspace ws;
  ws.require_capacity(1 << 12);
  const auto out = ws.alloc_view(5, 8);
  nn::multi_head_attention_into(nn::view_of(x), w, exact, ws, out);
  expect_bits(ref, out);
  // All attention scratch was rewound; only `out` remains allocated.
  EXPECT_EQ(ws.used(), 5u * 8u);
}

TEST(WorkspaceKernels, MultiHeadAttentionIntoBitIdenticalAcrossShapes) {
  // The row-streamed attention core against the plain-loop reference:
  // head widths and sequence lengths on and off the 16/8/4-column register
  // blocks, on the exact softmax and on a STAR engine drawing faults (whose
  // RNG state afterwards must match: same draws, same order). Input row 0
  // is scaled up so its key dominates every score row: the exact softmax
  // then returns exact-zero probabilities, which the context row skips.
  core::StarConfig cfg;
  cfg.cam_miss_prob = 0.05;
  const core::SoftmaxEngine engine(cfg);
  constexpr std::size_t kDModel = 6;
  Rng rng(40);
  nn::Workspace ws;
  std::uint64_t seed = 0;
  for (const std::size_t heads : {1u, 2u, 3u, 12u}) {
    for (const std::size_t d_k : {1u, 3u, 4u, 5u, 8u, 15u, 16u, 17u, 64u}) {
      const auto w = nn::MhaWeights::random(heads, kDModel, d_k, rng);
      for (const std::size_t seq : {1u, 2u, 3u, 15u, 16u, 17u, 33u, 65u, 130u}) {
        auto x = nn::Tensor::randn(seq, kDModel, rng);
        for (std::size_t c = 0; c < kDModel; ++c) {
          x.at(0, c) *= 1000.0;
        }
        ws.require_capacity(4 * seq * heads * d_k + d_k * seq + 2 * seq + seq * kDModel);
        ws.reset();
        const auto out = ws.alloc_view(seq, kDModel);

        nn::ExactSoftmaxInto exact;
        nn::multi_head_attention_into(nn::view_of(x), w, exact, ws, out);
        expect_bits(testing_ref::multi_head_attention(x, w, exact), out);
        EXPECT_EQ(ws.used(), seq * kDModel);

        ++seed;
        core::SoftmaxRunState run(seed);
        core::SoftmaxEngineRowRef star_softmax(engine, run);
        core::SoftmaxRunState ref_run(seed);
        core::SoftmaxEngineRowRef ref_softmax(engine, ref_run);
        // A row whose every CAM/SUB search misses throws (likely for short
        // rows); both sides must then throw after the same draws.
        nn::Tensor ref;
        bool ref_threw = false;
        try {
          ref = testing_ref::multi_head_attention(x, w, ref_softmax);
        } catch (const SimulationError&) {
          ref_threw = true;
        }
        const std::size_t before = ws.used();
        bool threw = false;
        try {
          nn::multi_head_attention_into(nn::view_of(x), w, star_softmax, ws, out);
        } catch (const SimulationError&) {
          threw = true;
        }
        ASSERT_EQ(threw, ref_threw) << "heads=" << heads << " d_k=" << d_k << " seq=" << seq;
        if (!threw) {
          expect_bits(ref, out);
          EXPECT_EQ(ws.used(), before);
        }
        EXPECT_EQ(run.rng(), ref_run.rng())
            << "heads=" << heads << " d_k=" << d_k << " seq=" << seq;
      }
    }
  }
}

TEST(WorkspaceKernels, ScaledDotAttentionIntoSkipsSignedZeroOperands) {
  // A projection never yields -0.0 (its sums start at +0.0), so feed one
  // head directly: -0.0 and +0.0 in Q are both skipped, the score sums
  // start at +0.0, and exact-zero probabilities skip their V rows.
  Rng rng(41);
  nn::Workspace ws;
  for (const std::size_t d_k : {1u, 5u, 16u, 17u}) {
    for (const std::size_t seq : {1u, 4u, 20u, 33u}) {
      auto q = nn::Tensor::randn(seq, d_k, rng);
      auto k = nn::Tensor::randn(seq, d_k, rng);
      const auto v = nn::Tensor::randn(seq, d_k + 3, rng);
      for (std::size_t r = 0; r < seq; ++r) {
        q.at(r, r % d_k) = r % 2 == 0 ? -0.0 : 0.0;
        if (r % 3 == 0) {
          for (std::size_t c = 0; c < d_k; ++c) {
            q.at(r, c) = -0.0;  // an all-(-0.0) query row
          }
        }
      }
      for (std::size_t c = 0; c < d_k; ++c) {
        k.at(0, c) *= 1e4;  // key 0 dominates: the other probabilities are 0
      }
      ws.require_capacity(seq * (d_k + 3) + d_k * seq + 2 * seq);
      ws.reset();
      const auto out = ws.alloc_view(seq, d_k + 3);
      nn::ExactSoftmaxInto exact;
      nn::scaled_dot_attention_into(nn::view_of(q), nn::view_of(k), nn::view_of(v), exact,
                                    ws, out);
      expect_bits(testing_ref::attention_head(q, k, v, exact), out);
      EXPECT_EQ(ws.used(), seq * (d_k + 3));
    }
  }
}

TEST(WorkspaceKernels, EncoderLayerIntoBitIdentical) {
  Rng rng(26);
  const auto w = nn::EncoderLayerWeights::random(kTiny, rng);
  const auto x = nn::Tensor::randn(
      6, static_cast<std::size_t>(kTiny.d_model), rng);

  nn::ExactSoftmaxInto exact;
  const auto ref = testing_ref::encoder_layer(x, w, exact);

  nn::Workspace ws;
  ws.require_capacity(nn::encoder_workspace_doubles(kTiny, 6));
  const auto out =
      ws.alloc_view(6, static_cast<std::size_t>(kTiny.d_model));
  nn::encoder_layer_forward_into(nn::view_of(x), w, exact, ws, out);
  expect_bits(ref, out);
}

// ---------- arena sizing rule ----------

TEST(EncoderArena, BertBaseLayerRunsInExactlyTheSizingRule) {
  // The arena schedule depends on shapes only; a zero input (cheap: the
  // zero-operand skip drops every projection MAC) runs it exactly. The
  // chain's two ping-pong buffers come first, then one BERT-base layer at
  // L = 384: it must fit the rule's size, and one double less must abort.
  const nn::BertConfig base = nn::BertConfig::base();
  constexpr std::size_t kSeq = 384;
  const auto d_model = static_cast<std::size_t>(base.d_model);
  Rng rng(42);
  const auto w = nn::EncoderLayerWeights::random(base, rng);
  const std::size_t need = nn::encoder_workspace_doubles(base, kSeq);
  nn::ExactSoftmaxInto exact;
  const auto run_layer = [&](std::size_t capacity) {
    nn::Workspace ws;
    ws.require_capacity(capacity);
    const auto x = ws.alloc_view(kSeq, d_model);
    const auto y = ws.alloc_view(kSeq, d_model);
    std::fill(x.data, x.data + kSeq * d_model, 0.0);
    nn::encoder_layer_forward_into(x, w, exact, ws, y);
    EXPECT_EQ(ws.capacity(), capacity);
    EXPECT_EQ(ws.used(), 2 * kSeq * d_model);
  };
  run_layer(need);
  EXPECT_DEATH(run_layer(need - 1), "arena undersized");
}

TEST(EncoderArena, SizingRuleIsLinearInSequenceLength) {
  for (const nn::BertConfig& cfg : {nn::BertConfig::base(), kTiny}) {
    for (const std::size_t len : {64u, 384u}) {
      EXPECT_LE(nn::encoder_workspace_doubles(cfg, 2 * len),
                2 * nn::encoder_workspace_doubles(cfg, len))
          << "d_model=" << cfg.d_model << " L=" << len;
    }
  }
}

// ---------- SoA weight flattening ----------

TEST(MhaWeights, FlatBlocksPreserveHistoricalDrawOrder) {
  // Head h's column slice [h*d_k, (h+1)*d_k) of each flat block must hold
  // exactly what the per-head layout drew: per head wq, wk, wv row-major
  // from one continuing stream, then wo.
  constexpr std::size_t kDk = 4;
  Rng rng(27);
  const auto w = nn::MhaWeights::random(3, 12, kDk, rng);
  Rng replay(27);
  const double proj_std = 1.0 / std::sqrt(12.0);
  for (std::size_t h = 0; h < 3; ++h) {
    for (const nn::Tensor* flat : {&w.wq, &w.wk, &w.wv}) {
      for (std::size_t r = 0; r < flat->rows(); ++r) {
        for (std::size_t c = 0; c < kDk; ++c) {
          EXPECT_EQ(flat->at(r, h * kDk + c), replay.normal(0.0, proj_std));
        }
      }
    }
  }
  for (std::size_t r = 0; r < w.wo.rows(); ++r) {
    for (std::size_t c = 0; c < w.wo.cols(); ++c) {
      EXPECT_EQ(w.wo.at(r, c), replay.normal(0.0, proj_std));
    }
  }
}

// ---------- softmax engine: staged reference, reseed ----------

TEST(SoftmaxEngineInto, RowIntoMatchesStagedReferenceUnderFaultInjection) {
  // Real-valued rows: the engine's conditioning (round to the operand
  // grid, clamp into the window) followed by the staged reference row.
  core::StarConfig cfg;
  cfg.cam_miss_prob = 0.1;
  const core::SoftmaxEngine engine(cfg);
  testing_ref::SoftmaxRowRef staged(cfg);
  const fxp::QFormat& fmt = engine.format();
  const std::int64_t bias = std::int64_t{1} << (fmt.total_bits() - 1);
  const std::int64_t top = (std::int64_t{1} << fmt.total_bits()) - 1;

  Rng rng(28);
  core::SoftmaxRunState arena(0xF00D);
  Rng ref_rng(0xF00D);
  std::vector<double> out;
  for (int row = 0; row < 10; ++row) {
    std::vector<double> x(16);
    std::vector<std::int64_t> codes(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.normal(0.0, 2.0);
      const auto c = static_cast<std::int64_t>(round_half_even(x[i] / fmt.resolution()));
      codes[i] = std::clamp<std::int64_t>(c + bias, 0, top);
    }
    const auto ref = staged.row(codes, ref_rng);
    out.resize(x.size());
    engine.softmax_row_into(x, arena, out);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double want = std::ldexp(static_cast<double>(ref[i]), -engine.prob_frac_bits());
      EXPECT_EQ(std::memcmp(&want, &out[i], sizeof(double)), 0);
    }
  }
}

TEST(SoftmaxEngineInto, ReseedMatchesFreshState) {
  core::StarConfig cfg;
  cfg.cam_miss_prob = 0.2;
  const core::SoftmaxEngine engine(cfg);

  Rng rng(29);
  std::vector<double> x(24);
  for (auto& v : x) {
    v = rng.normal(0.0, 2.0);
  }

  core::SoftmaxRunState pooled(0x1);
  std::vector<double> warm(x.size());
  engine.softmax_row_into(x, pooled, warm);  // burn draws, warm buffers
  pooled.reseed(0xBEEF);
  engine.softmax_row_into(x, pooled, warm);

  core::SoftmaxRunState fresh(0xBEEF);
  std::vector<double> cold(x.size());
  engine.softmax_row_into(x, fresh, cold);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::memcmp(&warm[i], &cold[i], sizeof(double)), 0);
  }
}

// ---------- served encoder vs the plain-loop reference ----------

core::StarConfig faulty_cfg(double miss) {
  core::StarConfig cfg;
  cfg.cam_miss_prob = miss;
  return cfg;
}

TEST(ArenaEncoder, BitIdenticalToReferenceAcrossShapes) {
  for (const double miss : {0.0, 0.05}) {
    const core::BatchEncoderSim sim(faulty_cfg(miss), kTiny, 0xB127, 3);
    Rng rng(31);
    for (const std::size_t seq : {4u, 16u}) {
      const auto input = nn::Tensor::randn(
          seq, static_cast<std::size_t>(kTiny.d_model), rng);
      for (std::int64_t layers = 1; layers <= 3; ++layers) {
        const std::uint64_t seed = 0x5eed0 + static_cast<std::uint64_t>(layers);
        const auto ref = testing_ref::encoder_on_star(sim, input, seed, layers);
        const auto got = sim.run_encoder_one(input, seed, layers);
        EXPECT_TRUE(nn::Tensor::bit_identical(ref, got))
            << "miss=" << miss << " seq=" << seq << " layers=" << layers;
      }
    }
  }
}

TEST(ArenaEncoder, WorkspaceReuseAcrossShapesMatchesFreshRuns) {
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(32);
  core::EncoderWorkspace ws;
  nn::Tensor out;  // caller-reused output tensor (reshaped in place)
  for (const std::size_t seq : {16u, 4u, 9u}) {
    const auto input = nn::Tensor::randn(
        seq, static_cast<std::size_t>(kTiny.d_model), rng);
    const std::uint64_t seed = 0xAB + seq;
    sim.run_encoder_one_into(input, seed, out, 2, 1,
                             workload::Dataset::kDefault, nullptr, &ws);
    const auto fresh = sim.run_encoder_one(input, seed, 2);
    EXPECT_TRUE(nn::Tensor::bit_identical(fresh, out)) << "seq=" << seq;
  }
}

TEST(ArenaEncoder, ThreadCountNeverReachesPayloadBits) {
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  constexpr std::size_t kBatch = 8;
  const std::uint64_t run_seed = 0xD15C;

  Rng rng(33);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    inputs.push_back(nn::Tensor::randn(
        6 + i, static_cast<std::size_t>(kTiny.d_model), rng));
  }

  std::vector<nn::Tensor> serial;
  serial.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    serial.push_back(sim.run_encoder_one(
        inputs[i], workload::sequence_seed(run_seed, i), 2));
  }

  std::vector<std::future<nn::Tensor>> futs;
  futs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    futs.push_back(std::async(std::launch::async, [&sim, &inputs, run_seed, i] {
      return sim.run_encoder_one(inputs[i], workload::sequence_seed(run_seed, i),
                                 2);
    }));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(serial[i], futs[i].get())) << i;
  }
}

TEST(ArenaEncoder, PoolSoakUnderConcurrency) {
  // Hammer the workspace pool from several threads (the TSan job runs this
  // test): every response must equal the solo reference.
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(34);
  const auto input = nn::Tensor::randn(
      8, static_cast<std::size_t>(kTiny.d_model), rng);
  const std::uint64_t seed = workload::sequence_seed(0xCAFE, 0);
  const auto ref = sim.run_encoder_one(input, seed, 2);

  constexpr int kThreads = 4;
  constexpr int kIters = 32;
  std::vector<std::future<bool>> futs;
  futs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(std::async(std::launch::async, [&] {
      nn::Tensor out;
      for (int i = 0; i < kIters; ++i) {
        sim.run_encoder_one_into(input, seed, out, 2);
        if (!nn::Tensor::bit_identical(ref, out)) {
          return false;
        }
      }
      return true;
    }));
  }
  for (auto& f : futs) {
    EXPECT_TRUE(f.get());
  }
}

// ---------- the tentpole invariant: zero warm allocations ----------

TEST(ArenaEncoder, WarmFunctionalRequestAllocatesNothing) {
  if (!util::alloc_audit_enabled()) {
    // Release / sanitizer builds have no operator-new instrumentation; the
    // Debug and -DSTAR_AUDIT=ON CI cells run the real assertion.
    return;
  }
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(35);
  const auto input = nn::Tensor::randn(
      16, static_cast<std::size_t>(kTiny.d_model), rng);

  core::EncoderWorkspace ws;
  nn::Tensor out;
  // Warm-up: size the arena, the engine scratch, the output tensor, and
  // turn every residency lookup into a hit.
  sim.run_encoder_one_into(input, workload::sequence_seed(0xA11C, 0), out, 2, 1,
                           workload::Dataset::kDefault, nullptr, &ws);

  const util::AllocCounter counter;
  for (std::size_t i = 0; i < 8; ++i) {
    sim.run_encoder_one_into(input, workload::sequence_seed(0xA11C, i), out, 2,
                             1, workload::Dataset::kDefault, nullptr, &ws);
  }
  EXPECT_EQ(counter.allocations(), 0u)
      << "a warm functional request touched the heap";
}

}  // namespace
}  // namespace star
