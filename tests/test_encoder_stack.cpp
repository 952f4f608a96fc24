// Multi-layer pipelined encoder stacks: the stack-level schedule
// composition (core/pipeline), the analytic EncoderStackModel, the
// functional num_layers chain in BatchEncoderSim, and num_layers flowing
// through serve::EncoderRequest with per-request determinism.
//
// Anchoring invariant: an N = 1 stack is bit-identical to today's
// single-layer EncoderModel::run_encoder_layer — the stack model may only
// ever EXTEND the layer model, never perturb it.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/encoder_model.hpp"
#include "core/encoder_stack.hpp"
#include "core/pipeline.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "support/encoder_ref.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

core::StarConfig nine_bit_cfg() {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  return cfg;
}

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::base();
const nn::BertConfig kTiny = nn::BertConfig::tiny();

core::LayerStageTimes layer_times(double mm_ns, double sm_ns, double ffn_ns) {
  core::LayerStageTimes t;
  t.attention.proj_row = Time::ns(mm_ns);
  t.attention.score_row = Time::ns(mm_ns);
  t.attention.softmax_row = Time::ns(sm_ns);
  t.attention.context_row = Time::ns(mm_ns);
  t.attention.outproj_row = Time::ns(mm_ns);
  t.ffn_row = Time::ns(ffn_ns);
  return t;
}

// ---------- N = 1 bit-identity with the single-layer model ----------

TEST(EncoderStack, SingleLayerStackBitIdenticalToEncoderLayer) {
  const core::EncoderModel layer_model(nine_bit_cfg());
  const core::EncoderStackModel stack_model(nine_bit_cfg());
  const auto ref = layer_model.run_encoder_layer(kBert, 128);
  const auto stack = stack_model.run_encoder_stack(kBert, 128, 1);

  // Exact double equality everywhere — not NEAR. The embedded layer record
  // and the stack totals must be the same bits the single-layer model
  // produces today.
  EXPECT_EQ(stack.num_layers, 1);
  EXPECT_EQ(stack.latency.as_s(), ref.latency.as_s());
  EXPECT_EQ(stack.operand_latency.as_s(), ref.latency.as_s());
  EXPECT_EQ(stack.energy.as_J(), ref.energy.as_J());
  EXPECT_EQ(stack.power.as_W(), ref.power.as_W());
  EXPECT_EQ(stack.stack_speedup, 1.0);
  EXPECT_EQ(stack.analytic_stack_speedup, 1.0);
  EXPECT_EQ(stack.report.total_ops, ref.report.total_ops);
  EXPECT_EQ(stack.report.latency.as_s(), ref.report.latency.as_s());

  EXPECT_EQ(stack.layer.latency.as_s(), ref.latency.as_s());
  EXPECT_EQ(stack.layer.energy.as_J(), ref.energy.as_J());
  EXPECT_EQ(stack.layer.power.as_W(), ref.power.as_W());
  EXPECT_EQ(stack.layer.ffn_latency.as_s(), ref.ffn_latency.as_s());
  EXPECT_EQ(stack.layer.attention.latency.as_s(), ref.attention.latency.as_s());
  EXPECT_EQ(stack.layer.attention.energy.as_J(), ref.attention.energy.as_J());
}

TEST(EncoderStack, NumLayersZeroUsesBertDepth) {
  const core::EncoderStackModel model(nine_bit_cfg());
  const auto d = model.run_encoder_stack(kBert, 64);
  EXPECT_EQ(d.num_layers, kBert.layers);
  const auto e = model.run_encoder_stack(kBert, 64, kBert.layers);
  EXPECT_EQ(d.latency.as_s(), e.latency.as_s());
}

TEST(EncoderStack, RejectsBadArguments) {
  const core::EncoderStackModel model(nine_bit_cfg());
  EXPECT_THROW(model.run_encoder_stack(kBert, 128, -1), InvalidArgument);
  EXPECT_THROW(model.run_encoder_stack(kBert, 1, 2), InvalidArgument);
  EXPECT_THROW(core::run_stack_pipeline({}, 4,
                                        core::PipelineDiscipline::kVectorGrained),
               InvalidArgument);
  const std::vector<core::LayerStageTimes> one{layer_times(10, 10, 10)};
  EXPECT_THROW(core::run_stack_pipeline(one, 0,
                                        core::PipelineDiscipline::kVectorGrained),
               InvalidArgument);
  EXPECT_THROW(core::analytic_stack_speedup(one[0], 0, 4), InvalidArgument);
}

// ---------- stack schedule properties ----------

TEST(EncoderStack, VectorGrainedNeverWorseThanOperandSampled) {
  // Sampled service times: the inter-layer streamed segment can never lose
  // to a barrier at the layer boundary, for any stage-time shape.
  Rng rng(0x57ACC);
  for (int sample = 0; sample < 60; ++sample) {
    core::LayerStageTimes t;
    t.attention.proj_row = Time::ns(rng.uniform(1.0, 2000.0));
    t.attention.score_row = Time::ns(rng.uniform(1.0, 2000.0));
    t.attention.softmax_row = Time::ns(rng.uniform(1.0, 5000.0));
    t.attention.context_row = Time::ns(rng.uniform(1.0, 2000.0));
    t.attention.outproj_row = Time::ns(rng.uniform(1.0, 2000.0));
    t.ffn_row = Time::ns(rng.uniform(1.0, 4000.0));
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 300));
    for (const std::size_t n : {std::size_t{2}, std::size_t{6}, std::size_t{12}}) {
      const std::vector<core::LayerStageTimes> stack(n, t);
      const auto vec = core::run_stack_pipeline(
          stack, rows, core::PipelineDiscipline::kVectorGrained);
      const auto op = core::run_stack_pipeline(
          stack, rows, core::PipelineDiscipline::kOperandGrained);
      EXPECT_LE(vec.makespan.as_ns(), op.makespan.as_ns() * (1.0 + 1e-12))
          << "sample " << sample << " N=" << n << " rows=" << rows;
    }
  }
}

TEST(EncoderStack, AnalyticMatchesSimulatedConstantService) {
  const core::LayerStageTimes t = layer_times(73.0, 211.0, 97.0);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{6},
                              std::size_t{12}}) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{16},
                                   std::size_t{128}}) {
      const std::vector<core::LayerStageTimes> stack(n, t);
      const auto vec = core::run_stack_pipeline(
          stack, rows, core::PipelineDiscipline::kVectorGrained);
      const auto op = core::run_stack_pipeline(
          stack, rows, core::PipelineDiscipline::kOperandGrained);
      const double sim_ratio = op.makespan / vec.makespan;
      EXPECT_NEAR(core::analytic_stack_speedup(t, n, rows), sim_ratio, 1e-9)
          << "N=" << n << " rows=" << rows;
    }
  }
}

TEST(EncoderStack, SpeedupGrowsWithDepthTowardAsymptote) {
  // Every added layer boundary hides min(ffn_row, max attention stage) per
  // row behind the streamed segment, so the stack speedup grows strictly
  // with depth and stays below the steady-state segment ratio.
  const core::LayerStageTimes t = layer_times(100.0, 80.0, 120.0);
  const std::size_t rows = 64;
  double prev = 1.0;
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{24}}) {
    const double sp = core::analytic_stack_speedup(t, n, rows);
    EXPECT_GT(sp, prev) << "N=" << n;
    prev = sp;
  }
  EXPECT_GT(prev, 1.1);  // deep stacks see a real win
  EXPECT_LT(prev, 2.0);  // bounded by the segment ratio
}

TEST(EncoderStack, UtilisationBounded) {
  const std::vector<core::LayerStageTimes> stack(6, layer_times(100, 60, 90));
  for (const auto d : {core::PipelineDiscipline::kVectorGrained,
                       core::PipelineDiscipline::kOperandGrained}) {
    const auto rep = core::run_stack_pipeline(stack, 48, d);
    EXPECT_GE(rep.softmax_stage_util, 0.0);
    EXPECT_LE(rep.softmax_stage_util, 1.0 + 1e-9);
    EXPECT_GT(rep.bottleneck_util, 0.0);
    EXPECT_LE(rep.bottleneck_util, 1.0 + 1e-9);
  }
}

TEST(EncoderStack, StackTotalsScaleSensibly) {
  const core::EncoderStackModel model(nine_bit_cfg());
  const auto one = model.run_encoder_stack(kBert, 128, 1);
  for (const std::int64_t n : {std::int64_t{2}, std::int64_t{6}, std::int64_t{12}}) {
    const auto stack = model.run_encoder_stack(kBert, 128, n);
    const double dn = static_cast<double>(n);
    // Energy and ops add linearly; the vector-grained makespan beats the
    // layer-barrier baseline, which is exactly N standalone layers.
    EXPECT_DOUBLE_EQ(stack.energy.as_J(), one.energy.as_J() * dn);
    EXPECT_DOUBLE_EQ(stack.report.total_ops, one.report.total_ops * dn);
    EXPECT_NEAR(stack.operand_latency.as_s(), one.latency.as_s() * dn,
                1e-12 * one.latency.as_s() * dn);
    EXPECT_LT(stack.latency.as_s(), stack.operand_latency.as_s());
    EXPECT_GT(stack.stack_speedup, 1.0);
    EXPECT_NEAR(stack.stack_speedup, stack.analytic_stack_speedup, 1e-9);
    EXPECT_GT(stack.latency.as_s(), one.latency.as_s());  // deeper is longer
  }
}

// ---------- functional num_layers chain (BatchEncoderSim) ----------

TEST(EncoderStackFunctional, TwoLayerChainMatchesManualComposition) {
  const core::BatchEncoderSim model(tiny_cfg(), kTiny, 0xB127, /*stack_depth=*/2);
  const auto inputs = workload::embedding_batch(
      1, 10, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x11);

  const std::uint64_t seed = 0xFEED;
  // One engine run state spans the whole chain — the fault stream
  // continues across layers like a physical pass through the stack.
  core::SoftmaxRunState run(seed);
  core::SoftmaxEngineRowRef softmax(model.softmax_engine(), run);
  const auto l1 = testing_ref::encoder_layer(inputs[0], model.layer_weights(0), softmax);
  const auto expected = testing_ref::encoder_layer(l1, model.layer_weights(1), softmax);

  const auto got = model.run_encoder_one(inputs[0], seed, 2);
  EXPECT_TRUE(nn::Tensor::bit_identical(got, expected));
}

TEST(EncoderStackFunctional, DefaultDepthPreservesSingleLayerModel) {
  // Layer 0's weights come from the same Rng stream prefix for every
  // depth, so deepening the model never changes single-layer payloads.
  const core::BatchEncoderSim shallow(tiny_cfg(), kTiny);
  const core::BatchEncoderSim deep(tiny_cfg(), kTiny, 0xB127, /*stack_depth=*/3);
  EXPECT_EQ(shallow.stack_depth(), 1);
  EXPECT_EQ(deep.stack_depth(), 3);

  const auto inputs = workload::embedding_batch(
      2, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x22);
  for (const auto& x : inputs) {
    EXPECT_TRUE(nn::Tensor::bit_identical(shallow.run_encoder_one(x, 7),
                                          deep.run_encoder_one(x, 7, 1)));
  }
  // Distinct layers hold distinct weights (the stream moved on).
  EXPECT_FALSE(nn::Tensor::bit_identical(deep.layer_weights(0).w_ff1,
                                         deep.layer_weights(1).w_ff1));
}

TEST(EncoderStackFunctional, NumLayersOutOfRangeThrows) {
  const core::BatchEncoderSim model(tiny_cfg(), kTiny, 0xB127, /*stack_depth=*/2);
  const auto inputs = workload::embedding_batch(
      1, 6, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x33);
  EXPECT_THROW((void)model.run_encoder_one(inputs[0], 1, 0), InvalidArgument);
  EXPECT_THROW((void)model.run_encoder_one(inputs[0], 1, 3), InvalidArgument);
  EXPECT_THROW((void)model.layer_weights(2), InvalidArgument);
  EXPECT_THROW(core::BatchEncoderSim(tiny_cfg(), kTiny, 1, 0), InvalidArgument);
}

TEST(EncoderStackFunctional, ClosedBatchChainsLayersDeterministically) {
  const core::BatchEncoderSim model(tiny_cfg(), kTiny, 0xB127, /*stack_depth=*/4);
  const auto inputs = workload::embedding_batch(
      5, 9, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x44);
  // Closed batch via the documented composition rule: index i runs with
  // seed workload::sequence_seed(run_seed, i).
  const auto run_batch = [&](sim::BatchScheduler& sched) {
    return sched.map<nn::Tensor>(inputs.size(), [&](std::size_t i) {
      return model.run_encoder_one(inputs[i],
                                   workload::sequence_seed(0x5EED, i), 4);
    });
  };

  sim::BatchScheduler one(1);
  const auto reference = run_batch(one);
  for (const int threads : {2, 5}) {
    sim::BatchScheduler sched(threads);
    const auto out = run_batch(sched);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(nn::Tensor::bit_identical(out[i], reference[i]))
          << "threads " << threads << " index " << i;
    }
  }
}

// ---------- num_layers through the serving front end ----------

/// Shared deep model: construction dominates test cost and the model is
/// immutable by contract. Fault injection on, so seed/stream drift between
/// the serve path and solo runs cannot hide.
const core::BatchEncoderSim& deep_model() {
  static const core::BatchEncoderSim model = [] {
    core::StarConfig cfg = tiny_cfg();
    cfg.cam_miss_prob = 0.01;
    return core::BatchEncoderSim(cfg, kTiny, 0xB127, /*stack_depth=*/12);
  }();
  return model;
}

TEST(EncoderStackServe, DeterministicAcrossPoliciesThreadsAndDepth) {
  const auto& model = deep_model();
  const auto inputs = workload::embedding_batch(
      6, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x55);

  for (const std::int64_t num_layers :
       {std::int64_t{2}, std::int64_t{6}, std::int64_t{12}}) {
    // Solo references: payload must depend only on (input, seed, depth).
    std::vector<nn::Tensor> expected;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expected.push_back(model.run_encoder_one(
          inputs[i], workload::sequence_seed(0x600 + i, 0), num_layers));
    }
    for (const auto policy : {serve::AdmissionPolicy::kBlock,
                              serve::AdmissionPolicy::kReject,
                              serve::AdmissionPolicy::kShedOldest}) {
      for (const int threads : {1, 4}) {
        sim::BatchScheduler sched(threads);
        serve::ServerOptions opts;
        opts.max_queue = 64;  // ample: reject/shed policies never trigger
        opts.admission = policy;
        opts.batcher.max_batch = 3;
        serve::StarServer server(model, sched, opts);
        std::vector<std::future<serve::EncoderResponse>> futs;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          futs.push_back(server.submit(
              serve::EncoderRequest{inputs[i], 0x600 + i, num_layers}));
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
          EXPECT_TRUE(
              nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
              << "layers " << num_layers << " threads " << threads;
        }
      }
    }
  }
}

TEST(EncoderStackServe, DepthChangesPayload) {
  const auto& model = deep_model();
  const auto inputs = workload::embedding_batch(
      1, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x66);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto f2 = server.submit(serve::EncoderRequest{inputs[0], 0x77, 2});
  auto f6 = server.submit(serve::EncoderRequest{inputs[0], 0x77, 6});
  EXPECT_FALSE(nn::Tensor::bit_identical(f2.get().output, f6.get().output));
}

TEST(EncoderStackServe, BadNumLayersResolvesFutureWithError) {
  const auto& model = deep_model();
  const auto inputs = workload::embedding_batch(
      1, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0x88);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto fut = server.submit(serve::EncoderRequest{inputs[0], 0x99, 13});
  EXPECT_THROW((void)fut.get(), InvalidArgument);
}

}  // namespace
}  // namespace star
