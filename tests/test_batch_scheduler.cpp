// Batched multi-threaded simulation: sim::BatchScheduler mechanics, the
// determinism/equivalence contract of core::BatchEncoderSim, and the
// thread-safety of the const engine datapaths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/functional_attention.hpp"
#include "nn/softmax_ref.hpp"
#include "sim/batch_scheduler.hpp"
#include "support/encoder_ref.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

bool byte_identical(const std::vector<nn::Tensor>& a,
                    const std::vector<nn::Tensor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!nn::Tensor::bit_identical(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

// Closed-batch composition helpers: map run_*_one over the documented
// per-sequence seed rule (engine seed of batch index i is
// workload::sequence_seed(run_seed, i)). This composition IS the contract
// the retired run_*_batch shims implemented; the tests below pin it.

std::vector<nn::Tensor> encoder_batch(const core::BatchEncoderSim& model,
                                      const std::vector<nn::Tensor>& inputs,
                                      sim::BatchScheduler& sched,
                                      std::uint64_t run_seed = 0x5EED,
                                      std::int64_t num_layers = 1,
                                      std::int64_t num_shards = 1) {
  return sched.map<nn::Tensor>(inputs.size(), [&](std::size_t i) {
    return model.run_encoder_one(inputs[i],
                                 workload::sequence_seed(run_seed, i),
                                 num_layers, num_shards);
  });
}

std::vector<core::FunctionalAttentionResult> attention_batch(
    const core::BatchEncoderSim& model,
    const std::vector<workload::QkvTriple>& qkv, sim::BatchScheduler& sched,
    std::uint64_t run_seed = 0x5EED) {
  return sched.map<core::FunctionalAttentionResult>(
      qkv.size(), [&](std::size_t i) {
        return model.run_attention_one(qkv[i],
                                       workload::sequence_seed(run_seed, i));
      });
}

std::vector<core::AttentionRunResult> analytic_batch(
    const core::BatchEncoderSim& model, const std::vector<std::int64_t>& lens,
    sim::BatchScheduler& sched) {
  return sched.map<core::AttentionRunResult>(lens.size(), [&](std::size_t i) {
    return model.run_analytic_one(lens[i]);
  });
}

// ---------- scheduler mechanics ----------

TEST(BatchScheduler, RunsEveryJobExactlyOnce) {
  sim::BatchScheduler sched(4);
  constexpr std::size_t kJobs = 200;
  std::vector<std::atomic<int>> hits(kJobs);
  sched.run(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(BatchScheduler, ZeroJobsIsANoOp) {
  sim::BatchScheduler sched(3);
  EXPECT_NO_THROW(sched.run(0, [](std::size_t) { throw std::logic_error("never"); }));
}

TEST(BatchScheduler, ReusableAcrossBatches) {
  sim::BatchScheduler sched(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    sched.run(17, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17);
  }
}

TEST(BatchScheduler, MoreThreadsThanJobs) {
  sim::BatchScheduler sched(8);
  std::atomic<int> count{0};
  sched.run(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(BatchScheduler, DefaultsToHardwareConcurrency) {
  sim::BatchScheduler sched(0);
  EXPECT_GE(sched.thread_count(), 1);
}

TEST(BatchScheduler, MapCollectsResultsInIndexOrder) {
  sim::BatchScheduler sched(4);
  const auto out =
      sched.map<int>(100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
  }
}

TEST(BatchScheduler, LowestIndexExceptionWins) {
  sim::BatchScheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    std::string caught;
    try {
      sched.run(64, [&](std::size_t i) {
        if (i % 7 == 3) {  // lowest failing index is 3
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "job 3");
  }
}

TEST(BatchScheduler, SchedulerUsableAfterException) {
  sim::BatchScheduler sched(2);
  EXPECT_THROW(
      sched.run(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  sched.run(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// ---------- determinism + equivalence of the batched encoder ----------

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

TEST(BatchEncoder, BatchedEqualsSequentialBitExact) {
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(tiny_cfg(), bert);
  const auto inputs = workload::embedding_batch(
      6, 12, static_cast<std::size_t>(bert.d_model), 1.0, 99);

  // Reference: B sequential runs of the plain-loop reference encoder, one
  // fresh engine run state per sequence (same per-sequence seeds).
  const auto seeds = workload::sequence_seeds(inputs.size(), 0x5EED);
  std::vector<nn::Tensor> reference;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reference.push_back(testing_ref::encoder_on_star(model, inputs[i], seeds[i], 1));
  }

  sim::BatchScheduler sched(4);
  const auto batched = encoder_batch(model, inputs, sched);
  EXPECT_TRUE(byte_identical(batched, reference));
}

TEST(BatchEncoder, DeterministicForAnyThreadCount) {
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(tiny_cfg(), bert);
  const auto inputs = workload::embedding_batch(
      5, 10, static_cast<std::size_t>(bert.d_model), 1.0, 7);

  sim::BatchScheduler one(1);
  const auto reference = encoder_batch(model, inputs, one);
  for (const int threads : {2, 3, 5, 8}) {
    sim::BatchScheduler sched(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto out = encoder_batch(model, inputs, sched);
      EXPECT_TRUE(byte_identical(out, reference));
    }
  }
}

TEST(BatchEncoder, AttentionBatchMatchesSequential) {
  const core::BatchEncoderSim model(tiny_cfg(), nn::BertConfig::tiny());
  const auto qkv = workload::qkv_batch(4, 10, 16, 2.0, 0xF00D);

  const auto seeds = workload::sequence_seeds(qkv.size(), 0x5EED);
  sim::BatchScheduler sched(3);
  const auto batched = attention_batch(model, qkv, sched);
  ASSERT_EQ(batched.size(), qkv.size());
  for (std::size_t i = 0; i < qkv.size(); ++i) {
    core::SoftmaxRunState run(seeds[i]);
    const auto ref = core::attention_on_star(qkv[i].q, qkv[i].k, qkv[i].v,
                                             model.matmul_engine(),
                                             model.softmax_engine(), run);
    EXPECT_TRUE(nn::Tensor::bit_identical(batched[i].output, ref.output));
    EXPECT_TRUE(
        nn::Tensor::bit_identical(batched[i].probabilities, ref.probabilities));
  }
}

TEST(BatchEncoder, AnalyticBatchMatchesDirectRuns) {
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::BatchEncoderSim model(core::StarConfig{}, bert);
  const std::vector<std::int64_t> lens = {32, 64, 128, 256, 64, 32};

  sim::BatchScheduler sched(4);
  const auto batched = analytic_batch(model, lens, sched);
  ASSERT_EQ(batched.size(), lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    const auto direct = model.accelerator().run_attention_layer(bert, lens[i]);
    EXPECT_DOUBLE_EQ(batched[i].latency.as_s(), direct.latency.as_s());
    EXPECT_DOUBLE_EQ(batched[i].energy.as_J(), direct.energy.as_J());
    EXPECT_DOUBLE_EQ(batched[i].power.as_W(), direct.power.as_W());
  }
}

TEST(BatchEncoder, FaultInjectionStreamsArePerSequence) {
  // With cam_miss_prob > 0 the per-sequence RNG streams decide the sampled
  // faults; determinism across thread counts must still hold because each
  // sequence owns its stream.
  core::StarConfig cfg = tiny_cfg();
  cfg.cam_miss_prob = 0.02;
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(cfg, bert);
  const auto inputs = workload::embedding_batch(
      4, 8, static_cast<std::size_t>(bert.d_model), 1.0, 21);

  sim::BatchScheduler one(1);
  const auto reference = encoder_batch(model, inputs, one);
  for (const int threads : {2, 7}) {
    sim::BatchScheduler sched(threads);
    EXPECT_TRUE(byte_identical(encoder_batch(model, inputs, sched), reference));
  }
}

TEST(BatchEncoder, CompositionRuleMatchesRunOneRule) {
  // Regression lock on the documented seed-derivation rule: a closed batch
  // composed through the scheduler must execute batch index i with engine
  // seed workload::sequence_seed(run_seed, i) — exactly what a caller
  // running run_*_one solo (or serve::StarServer with index 0) would use,
  // independent of thread placement. Fault injection is on so seed drift
  // shows up as a payload difference, not just silently re-seeded noise.
  core::StarConfig cfg = tiny_cfg();
  cfg.cam_miss_prob = 0.02;
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(cfg, bert, 0xB127, /*stack_depth=*/2);
  const std::uint64_t run_seed = 0xA5EED;

  sim::BatchScheduler sched(3);
  const auto inputs = workload::embedding_batch(
      5, 9, static_cast<std::size_t>(bert.d_model), 1.0, 0xC0FFEE);
  for (const std::int64_t num_layers : {std::int64_t{1}, std::int64_t{2}}) {
    const auto batched =
        encoder_batch(model, inputs, sched, run_seed, num_layers);
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto one = model.run_encoder_one(
          inputs[i], workload::sequence_seed(run_seed, i), num_layers);
      EXPECT_TRUE(nn::Tensor::bit_identical(batched[i], one))
          << "index " << i << " layers " << num_layers;
    }
  }

  const auto qkv = workload::qkv_batch(4, 8, 16, 2.0, 0xF00D);
  const auto attn_batched = attention_batch(model, qkv, sched, run_seed);
  ASSERT_EQ(attn_batched.size(), qkv.size());
  for (std::size_t i = 0; i < qkv.size(); ++i) {
    const auto one =
        model.run_attention_one(qkv[i], workload::sequence_seed(run_seed, i));
    EXPECT_TRUE(nn::Tensor::bit_identical(attn_batched[i].output, one.output))
        << "index " << i;
    EXPECT_TRUE(nn::Tensor::bit_identical(attn_batched[i].probabilities,
                                          one.probabilities))
        << "index " << i;
  }
}

// ---------- property sweep: batch x threads x seq_len ----------

class BatchSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BatchSweep, BatchedEqualsSequentialEverywhere) {
  const auto [batch, threads, seq_len] = GetParam();
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(tiny_cfg(), bert);
  const auto inputs = workload::embedding_batch(
      static_cast<std::size_t>(batch), static_cast<std::size_t>(seq_len),
      static_cast<std::size_t>(bert.d_model), 1.0,
      0xABC + static_cast<std::uint64_t>(batch * 1000 + seq_len));

  sim::BatchScheduler one(1);
  const auto reference = encoder_batch(model, inputs, one);

  sim::BatchScheduler sched(threads);
  EXPECT_TRUE(byte_identical(encoder_batch(model, inputs, sched), reference));
}

INSTANTIATE_TEST_SUITE_P(Shapes, BatchSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 2, 5),
                                            ::testing::Values(4, 16)));

}  // namespace
}  // namespace star
