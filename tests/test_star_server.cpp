// serve::StarServer: the asynchronous submit() -> future front end.
//
// The load-bearing property is the per-request determinism contract: a
// response payload depends only on (request payload, request run_seed) and
// is bit-identical to a solo closed-batch run — never on batch placement,
// batcher policy, submission order or thread count. The rest covers the
// admission policies (block / reject / shed-oldest), future exception
// propagation, drain/shutdown semantics and stats accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "serve/request.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::tiny();

/// Shared model for the whole binary: construction is the expensive part
/// and the model is immutable by contract.
const core::BatchEncoderSim& shared_model() {
  static const core::BatchEncoderSim model(tiny_cfg(), kBert);
  return model;
}

std::vector<nn::Tensor> test_inputs(std::size_t n, std::uint64_t seed,
                                    std::size_t seq_len = 10) {
  return workload::embedding_batch(
      n, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed);
}

/// The reference a served request must match bit-for-bit: a solo
/// closed-batch run with the request's own run_seed.
nn::Tensor solo_reference(const core::BatchEncoderSim& model,
                          const nn::Tensor& input, std::uint64_t run_seed) {
  // The serving seed rule: a solo run is batch index 0 of run_seed.
  return model.run_encoder_one(input, workload::sequence_seed(run_seed, 0));
}

/// Generous bound for "promptly": far below the 100 s parked deadline,
/// far above any sanitizer-build scheduling delay.
constexpr auto kPrompt = std::chrono::seconds(10);

/// Long enough for the batcher thread to fall asleep after a submit.
void let_batcher_sleep() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

template <typename Response>
bool resolves_promptly(std::future<Response>& fut) {
  return fut.wait_for(kPrompt) == std::future_status::ready;
}

// ---------- determinism contract ----------

TEST(StarServer, SingleRequestMatchesSoloClosedBatchRun) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(1, 0xA11CE);
  const std::uint64_t run_seed = 0xD00D;
  const nn::Tensor expected = solo_reference(model, inputs[0], run_seed);

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto fut = server.submit(serve::EncoderRequest{inputs[0], run_seed});
  const auto resp = fut.get();
  EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected));
  EXPECT_EQ(resp.stats.batch_size, 1u);
}

TEST(StarServer, ResponsesIndependentOfBatchPlacement) {
  // The same request served alone and served inside a crowded batch must
  // produce the identical payload.
  const auto& model = shared_model();
  const auto inputs = test_inputs(8, 0xBEE);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x100 + i));
  }

  sim::BatchScheduler sched(4);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 8;  // everything coalesces into one batch
  opts.batcher.max_wait_ticks = 1000;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x100 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "request " << i;
  }
}

TEST(StarServer, ShuffledSubmissionOrderSameResults) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(10, 0x0DDB);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x9000 + i));
  }

  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(0x5107);  // deterministic shuffle
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 3;
  serve::StarServer server(model, sched, opts);
  std::vector<std::future<serve::EncoderResponse>> futs(inputs.size());
  for (const std::size_t i : order) {
    futs[i] = server.submit(serve::EncoderRequest{inputs[i], 0x9000 + i});
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "request " << i;
  }
}

TEST(StarServer, FaultInjectionStreamsReproducibleAcrossApis) {
  // cam_miss_prob > 0 makes the per-request RNG stream decide sampled
  // faults; the serve path must draw the same stream as a solo batch call.
  core::StarConfig cfg = tiny_cfg();
  cfg.cam_miss_prob = 0.02;
  const core::BatchEncoderSim model(cfg, kBert);
  const auto inputs = test_inputs(4, 0xFA57);

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint64_t run_seed = 0x7000 + i;
    auto fut = server.submit(serve::EncoderRequest{inputs[i], run_seed});
    EXPECT_TRUE(nn::Tensor::bit_identical(
        fut.get().output, solo_reference(model, inputs[i], run_seed)));
  }
}

// ---------- policy x thread-count sweep ----------

class ServerPolicySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ServerPolicySweep, BitIdenticalToSoloRunsEverywhere) {
  const auto [threads, max_batch, max_wait_ticks] = GetParam();
  const auto& model = shared_model();
  const auto inputs = test_inputs(7, 0x5EEDED, 8);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x4242 + i));
  }

  sim::BatchScheduler sched(threads);
  serve::ServerOptions opts;
  opts.batcher.max_batch = static_cast<std::size_t>(max_batch);
  opts.batcher.max_wait_ticks = static_cast<std::uint32_t>(max_wait_ticks);
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x4242 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "threads=" << threads << " max_batch=" << max_batch
        << " max_wait_ticks=" << max_wait_ticks << " request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ServerPolicySweep,
    ::testing::Combine(::testing::Values(1, 2, 5),   // scheduler threads
                       ::testing::Values(1, 3, 16),  // batcher max_batch
                       ::testing::Values(0, 4)));    // batcher max_wait_ticks

// ---------- attention + analytic variants ----------

TEST(StarServer, AttentionVariantMatchesSoloRun) {
  const auto& model = shared_model();
  const auto qkv = workload::qkv_batch(3, 10, 16, 2.0, 0xF00D);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);

  for (std::size_t i = 0; i < qkv.size(); ++i) {
    const std::uint64_t run_seed = 0xAA00 + i;
    auto fut = server.submit(serve::AttentionRequest{qkv[i], run_seed});
    const auto resp = fut.get();

    const auto ref = model.run_attention_one(
        qkv[i], workload::sequence_seed(run_seed, 0));
    EXPECT_TRUE(nn::Tensor::bit_identical(resp.result.output, ref.output));
    EXPECT_TRUE(nn::Tensor::bit_identical(resp.result.probabilities,
                                          ref.probabilities));
  }
}

TEST(StarServer, AnalyticVariantMatchesDirectRun) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  for (const std::int64_t len : {32, 64, 128}) {
    auto fut = server.submit(serve::AnalyticRequest{len});
    const auto resp = fut.get();
    const auto direct = model.accelerator().run_attention_layer(kBert, len);
    EXPECT_DOUBLE_EQ(resp.result.latency.as_s(), direct.latency.as_s());
    EXPECT_DOUBLE_EQ(resp.result.energy.as_J(), direct.energy.as_J());
    EXPECT_DOUBLE_EQ(resp.result.power.as_W(), direct.power.as_W());
  }
}

// ---------- admission control ----------

/// Options that park requests in the queue: a far-future age-out deadline
/// and a batch size the test never fills, so admission behaviour is
/// observable before any dispatch happens.
serve::ServerOptions parked_queue_opts(std::size_t max_queue,
                                       serve::AdmissionPolicy policy) {
  serve::ServerOptions opts;
  opts.max_queue = max_queue;
  opts.admission = policy;
  opts.batcher.max_batch = 1000;
  opts.batcher.max_wait_ticks = 1000;
  opts.batcher.tick = std::chrono::microseconds(100000);  // 100 s age-out
  return opts;
}

TEST(StarServer, RejectPolicyFailsNewRequestFuture) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xCAFE, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kReject));

  auto first = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto second = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(second.get(), serve::RejectedError);

  server.shutdown();  // dispatches the parked request
  EXPECT_TRUE(nn::Tensor::bit_identical(first.get().output,
                                        solo_reference(model, inputs[0], 1)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(StarServer, ShedOldestPolicyEvictsTheOldestPending) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xD0E, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kShedOldest));

  auto oldest = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto newest = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(oldest.get(), serve::ShedError);

  server.shutdown();
  EXPECT_TRUE(nn::Tensor::bit_identical(newest.get().output,
                                        solo_reference(model, inputs[1], 2)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(StarServer, ShedErrorIsAnAdmissionError) {
  // Callers may catch the policy-agnostic base type.
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xE44, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kShedOldest));
  auto oldest = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto newest = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(oldest.get(), serve::AdmissionError);
  server.shutdown();
  newest.get();
}

TEST(StarServer, BlockPolicyThrottlesButServesEverything) {
  // A tiny queue with a fast batcher: submitters block transiently, but
  // every request is eventually admitted, served and correct.
  const auto& model = shared_model();
  const auto inputs = test_inputs(12, 0xB10C, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.max_queue = 2;
  opts.admission = serve::AdmissionPolicy::kBlock;
  opts.batcher.max_batch = 2;
  opts.batcher.max_wait_ticks = 0;  // dispatch immediately
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x600 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(
        futs[i].get().output, solo_reference(model, inputs[i], 0x600 + i)));
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, inputs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(StarServer, SubmitAfterShutdownIsRejected) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(1, 0x511, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(model, sched);
  server.shutdown();
  auto fut = server.submit(serve::EncoderRequest{inputs[0], 1});
  EXPECT_THROW(fut.get(), serve::RejectedError);
  EXPECT_EQ(server.stats().rejected, 1u);
}

// ---------- batcher wake rules ----------
//
// A submit wakes the batcher only when the push can change its next
// decision: the queue reaches max_batch, admission fills under kBlock, or
// a new head ages out before the deadline the batcher sleeps toward. These
// tests pin each rule against a batcher asleep on a far deadline, where a
// missed wake would park the request for 100 s. Shutdown of a sleeping
// batcher is covered by DestructorResolvesEveryAdmittedFuture.

TEST(StarServerWake, SizeTriggerWakesASleepingBatcher) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions opts =
      parked_queue_opts(64, serve::AdmissionPolicy::kBlock);
  opts.batcher.max_batch = 4;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{32}));
  }
  let_batcher_sleep();  // asleep toward the head's 100 s deadline
  futs.push_back(server.submit(serve::AnalyticRequest{32}));
  for (auto& fut : futs) {
    ASSERT_TRUE(resolves_promptly(fut));
    EXPECT_EQ(fut.get().stats.batch_size, 4u);
  }
}

TEST(StarServerWake, EarlierHeadInShorterBucketDispatchesAtItsOwnDeadline) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 1000;
  opts.batcher.tick = std::chrono::milliseconds(10);
  opts.batcher.max_wait_ticks = 10000;  // long bucket: 100 s
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16, 64});
  opts.batcher.bucketing.buckets[0].max_wait_ticks = 5;  // short: 50 ms
  serve::StarServer server(model, sched, opts);

  auto long_req = server.submit(serve::AnalyticRequest{32});
  let_batcher_sleep();  // asleep toward the long head's 100 s deadline
  auto short_req = server.submit(serve::AnalyticRequest{8});
  ASSERT_TRUE(resolves_promptly(short_req));
  const auto resp = short_req.get();
  EXPECT_EQ(resp.stats.bucket, 0u);
  EXPECT_GE(resp.stats.queue_wait_s, 0.05);  // age-out honoured, not early
  EXPECT_EQ(long_req.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);  // still parked on its own window
  server.shutdown();
  EXPECT_EQ(long_req.get().stats.bucket, 1u);
}

TEST(StarServerWake, BlockDispatchesWhenAdmissionFillsBelowMaxBatch) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  // max_batch > max_queue: the size trigger can never fire, only the full
  // admission queue can.
  serve::StarServer server(
      model, sched, parked_queue_opts(3, serve::AdmissionPolicy::kBlock));

  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{32}));
  }
  for (auto& fut : futs) {
    ASSERT_TRUE(resolves_promptly(fut));
    EXPECT_EQ(fut.get().stats.batch_size, 3u);
  }
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(StarServerWake, DrainDuringSleepResolvesEveryFuture) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 1000;
  opts.batcher.tick = std::chrono::milliseconds(1);
  opts.batcher.max_wait_ticks = 20;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{32}));
  }
  // Two concurrent drainers: both must be released by the one batch.
  std::thread other([&] { server.drain(); });
  server.drain();
  other.join();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
  EXPECT_EQ(server.pending(), 0u);
}

TEST(StarServerWake, ShedOfTheSleptOnHeadStillResolvesEveryFuture) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions opts;
  opts.max_queue = 2;
  opts.admission = serve::AdmissionPolicy::kShedOldest;
  opts.batcher.max_batch = 1000;
  opts.batcher.tick = std::chrono::milliseconds(1);
  opts.batcher.max_wait_ticks = 30;
  serve::StarServer server(model, sched, opts);

  auto oldest = server.submit(serve::AnalyticRequest{32});
  let_batcher_sleep();  // asleep toward the oldest head's deadline
  auto second = server.submit(serve::AnalyticRequest{32});
  auto third = server.submit(serve::AnalyticRequest{32});  // sheds `oldest`
  EXPECT_THROW(oldest.get(), serve::ShedError);
  ASSERT_TRUE(resolves_promptly(second));
  ASSERT_TRUE(resolves_promptly(third));
  // The replacement head is owed its own full window.
  EXPECT_GE(second.get().stats.queue_wait_s, 0.03);
  EXPECT_NO_THROW(third.get());
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(StarServerWake, NonFillingPushesDoNotWakeTheBatcher) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1000, serve::AdmissionPolicy::kBlock));
  std::vector<std::future<serve::AnalyticResponse>> futs;
  futs.push_back(server.submit(serve::AnalyticRequest{32}));
  let_batcher_sleep();
  const std::uint64_t before = server.stats().batcher_wakeups;
  constexpr int kPushes = 50;
  for (int i = 0; i < kPushes; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{32}));
    // Spaced out so that each push finds the batcher asleep; back-to-back
    // pushes would coalesce even unconditional notifies into one wake.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  let_batcher_sleep();
  // Allow a couple of spurious wakes, never one per push.
  EXPECT_LE(server.stats().batcher_wakeups - before, 2u);
  EXPECT_EQ(server.pending(), futs.size());
  server.shutdown();
  for (auto& fut : futs) {
    EXPECT_NO_THROW(fut.get());
  }
}

// ---------- exception propagation + lifecycle ----------

TEST(StarServer, ComputeExceptionPropagatesThroughOwnFutureOnly) {
  const auto& model = shared_model();
  const auto good = test_inputs(1, 0x60D, 6);
  // Wrong width: run_encoder_one's d_model precondition fails in the job.
  Rng rng(1);
  const nn::Tensor bad = nn::Tensor::randn(
      6, static_cast<std::size_t>(kBert.d_model) + 1, rng, 0.0, 1.0);

  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 2;  // bad + good coalesce into one batch
  opts.batcher.max_wait_ticks = 1000;
  serve::StarServer server(model, sched, opts);

  auto bad_fut = server.submit(serve::EncoderRequest{bad, 1});
  auto good_fut = server.submit(serve::EncoderRequest{good[0], 2});
  EXPECT_THROW(bad_fut.get(), InvalidArgument);
  EXPECT_TRUE(nn::Tensor::bit_identical(good_fut.get().output,
                                        solo_reference(model, good[0], 2)));

  // The server survives a failed request and keeps serving.
  auto again = server.submit(serve::EncoderRequest{good[0], 3});
  EXPECT_TRUE(nn::Tensor::bit_identical(again.get().output,
                                        solo_reference(model, good[0], 3)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(StarServer, DrainWaitsForAllAdmittedRequests) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(6, 0xD8A1, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 2;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  server.drain();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(server.stats().completed, inputs.size());
}

TEST(StarServer, DestructorResolvesEveryAdmittedFuture) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(5, 0xDEAD, 6);
  std::vector<std::future<serve::EncoderResponse>> futs;
  {
    sim::BatchScheduler sched(2);
    serve::ServerOptions opts;
    opts.batcher.max_batch = 1000;  // park everything until shutdown drains
    opts.batcher.max_wait_ticks = 1000;
    opts.batcher.tick = std::chrono::microseconds(100000);
    serve::StarServer server(model, sched, opts);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
    }
    let_batcher_sleep();  // shutdown must reach a batcher asleep on 100 s
  }  // ~StarServer: shutdown() dispatches the parked batch
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output,
                                          solo_reference(model, inputs[i], i)));
  }
}

TEST(StarServer, ShutdownIsIdempotent) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::StarServer server(model, sched);
  server.shutdown();
  EXPECT_NO_THROW(server.shutdown());
}

// ---------- stats accounting ----------

TEST(StarServer, StatsAccounting) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(9, 0x57A7, 6);
  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 4;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  for (auto& fut : futs) {
    fut.get();
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, inputs.size());
  EXPECT_EQ(stats.admitted, inputs.size());
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, (inputs.size() + opts.batcher.max_batch - 1) /
                               opts.batcher.max_batch);
  EXPECT_LE(stats.batch_occupancy_max, opts.batcher.max_batch);
  EXPECT_GT(stats.batch_occupancy_mean, 0.0);
  EXPECT_GE(stats.queue_wait_p99_s, 0.0);
  // Nearest-rank p99 over <100 samples is the max, which bounds the mean.
  EXPECT_GE(stats.queue_wait_p99_s, stats.queue_wait_mean_s);
  EXPECT_GT(stats.service_mean_s, 0.0);
  EXPECT_GE(stats.service_p99_s, stats.service_mean_s);
}

TEST(StarServer, RequestStatsDescribeBatchPlacement) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(4, 0x9A7C, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 1000;  // wait for the full batch
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    EXPECT_EQ(resp.stats.batch_size, inputs.size());
    EXPECT_EQ(resp.stats.batch_id, 0u);
    EXPECT_GE(resp.stats.queue_wait_s, 0.0);
    EXPECT_GE(resp.stats.service_s, 0.0);
  }
}

// ---------- percentile / StatsAccumulator edge cases ----------

TEST(Percentile, EmptyReservoirIsZeroAtEveryP) {
  const std::vector<double> none;
  EXPECT_EQ(serve::percentile(none, 0.0), 0.0);
  EXPECT_EQ(serve::percentile(none, 0.5), 0.0);
  EXPECT_EQ(serve::percentile(none, 0.99), 0.0);
  EXPECT_EQ(serve::percentile(none, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> one = {42.5};
  EXPECT_EQ(serve::percentile(one, 0.0), 42.5);
  EXPECT_EQ(serve::percentile(one, 0.5), 42.5);
  EXPECT_EQ(serve::percentile(one, 1.0), 42.5);
}

TEST(Percentile, EndpointsAreMinAndMax) {
  // Deliberately unsorted: selection must not depend on input order.
  const std::vector<double> s = {5.0, 1.0, 9.0, 3.0, 7.0};
  EXPECT_EQ(serve::percentile(s, 0.0), 1.0);
  EXPECT_EQ(serve::percentile(s, 1.0), 9.0);
}

TEST(Percentile, NearestRankOnKnownSet) {
  // n = 10 samples 1..10: nearest-rank index = ceil(p * 10) - 1.
  std::vector<double> s = {10, 3, 7, 1, 9, 4, 6, 2, 8, 5};
  EXPECT_EQ(serve::percentile(s, 0.5), 5.0);    // ceil(5) - 1 = idx 4
  EXPECT_EQ(serve::percentile(s, 0.99), 10.0);  // ceil(9.9) - 1 = idx 9
  EXPECT_EQ(serve::percentile(s, 0.11), 2.0);   // ceil(1.1) - 1 = idx 1
}

TEST(Percentile, DoesNotReorderTheReservoir) {
  const std::vector<double> original = {5.0, 1.0, 9.0, 3.0};
  std::vector<double> s = original;
  (void)serve::percentile(s, 0.5);
  EXPECT_EQ(s, original);
}

TEST(Percentile, OutOfRangePThrows) {
  const std::vector<double> s = {1.0, 2.0};
  EXPECT_THROW((void)serve::percentile(s, -0.01), InvalidArgument);
  EXPECT_THROW((void)serve::percentile(s, 1.01), InvalidArgument);
}

TEST(StatsAccumulator, FreshSnapshotIsAllZeros) {
  serve::StatsAccumulator acc;
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.batches, 0u);
  // Every derived ratio must come out 0, not NaN, on the empty ledger.
  EXPECT_EQ(snap.queue_wait_mean_s, 0.0);
  EXPECT_EQ(snap.queue_wait_p99_s, 0.0);
  EXPECT_EQ(snap.service_p99_s, 0.0);
  EXPECT_EQ(snap.batch_occupancy_mean, 0.0);
  EXPECT_EQ(snap.padded_occupancy, 0.0);
  EXPECT_EQ(snap.effective_occupancy, 0.0);
  EXPECT_EQ(snap.padding_waste, 0.0);
  EXPECT_EQ(snap.seq_len_mean, 0.0);
  EXPECT_EQ(snap.programming_time_share, 0.0);
}

TEST(StatsAccumulator, SingleRequestIsItsOwnDistribution) {
  serve::StatsAccumulator acc;
  acc.on_submitted();
  acc.on_admitted();
  acc.on_batch(/*occupancy=*/1, /*bucket=*/0, /*effective=*/6, /*padded=*/8,
               /*capacity=*/16);
  serve::RequestStats rs;
  rs.queue_wait_s = 0.25;
  rs.service_s = 1.5;
  rs.seq_len = 6;
  acc.on_done(rs, /*ok=*/true);
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.completed, 1u);
  // With one sample, mean == p99 == the sample for both phases.
  EXPECT_DOUBLE_EQ(snap.queue_wait_mean_s, 0.25);
  EXPECT_DOUBLE_EQ(snap.queue_wait_p99_s, 0.25);
  EXPECT_DOUBLE_EQ(snap.service_mean_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.service_p99_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.seq_len_mean, 6.0);
  // Token ledger: 6 effective of 8 padded of 16 capacity.
  EXPECT_DOUBLE_EQ(snap.padded_occupancy, 0.5);
  EXPECT_DOUBLE_EQ(snap.effective_occupancy, 6.0 / 16.0);
  EXPECT_DOUBLE_EQ(snap.padding_waste, 1.0 - 6.0 / 8.0);
}

TEST(StatsAccumulator, BatchOnlyLedgerHasNoLatencies) {
  // Batches dispatched but nothing resolved yet (requests in flight):
  // occupancy accounting is live, latency distributions still empty.
  serve::StatsAccumulator acc;
  acc.on_submitted();
  acc.on_admitted();
  acc.on_batch(/*occupancy=*/3, /*bucket=*/0, /*effective=*/12, /*padded=*/24,
               /*capacity=*/32);
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_DOUBLE_EQ(snap.batch_occupancy_mean, 3.0);
  EXPECT_EQ(snap.batch_occupancy_max, 3u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.queue_wait_p99_s, 0.0);
  EXPECT_EQ(snap.service_p99_s, 0.0);
}

TEST(StatsAccumulator, ConfigureBucketsRejectsEmptyLayout) {
  serve::StatsAccumulator acc;
  EXPECT_THROW(acc.configure_buckets({}), InvalidArgument);
}

// ---------- invalid configuration ----------

TEST(StarServer, RejectsInvalidOptions) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions zero_queue;
  zero_queue.max_queue = 0;
  EXPECT_THROW(serve::StarServer(model, sched, zero_queue), InvalidArgument);
  serve::ServerOptions zero_batch;
  zero_batch.batcher.max_batch = 0;
  EXPECT_THROW(serve::StarServer(model, sched, zero_batch), InvalidArgument);
}

}  // namespace
}  // namespace star
