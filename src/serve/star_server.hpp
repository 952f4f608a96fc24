// Asynchronous serving front end over the batched STAR simulator.
//
// Callers submit INDIVIDUAL requests and get std::futures back; they never
// see a batch boundary. Inside, a StarServer is three cooperating pieces:
//
//   1. Admission: a bounded pending queue (`max_queue`) with a
//      backpressure policy — block the submitter, reject the newcomer, or
//      shed the oldest pending request to make room.
//   2. Dynamic batcher: a dedicated thread that coalesces pending requests
//      into a batch once `max_batch` are waiting, or earlier once the
//      oldest pending request has aged `max_wait_ticks` ticks — the
//      classic (max batch, max wait) serving policy. With length-bucketed
//      batching enabled (BatcherPolicy::bucketing) requests are first
//      partitioned by sequence length into per-bucket queues, each with
//      its own effective (max_batch, max_wait) knobs; a formed batch never
//      mixes buckets and is billed at the bucket's padded length instead
//      of the batch max (see serve/length_buckets.hpp).
//   3. Dispatch: each formed batch runs on the caller-supplied
//      sim::BatchScheduler worker pool; request i of the batch executes
//      core::BatchEncoderSim::run_*_one with its own derived seed.
//
// Determinism contract: a response payload depends ONLY on (request
// payload, request run_seed) — never on which batch the request landed in,
// the batcher policy, or the thread count. Each request executes with
// engine seed workload::sequence_seed(run_seed, 0), exactly the seed of a
// solo run_*_batch({input}, sched, run_seed) call, so server responses are
// bit-identical to solo closed-batch runs. Timing (RequestStats,
// ServerStats) is wall-clock and placement-dependent by design.
//
// Threading: submit()/drain()/stats() are safe from any thread. The
// scheduler passed in must not be used by anyone else while the server is
// live (BatchScheduler::run is single-caller; the batcher thread is that
// caller). Compute exceptions propagate through the request's own future
// and never affect batchmates or the server loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "core/batch_encoder.hpp"
#include "serve/length_buckets.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "sim/batch_scheduler.hpp"

namespace star::serve {

/// What to do with a submit() when the pending queue is full.
enum class AdmissionPolicy {
  kBlock,      ///< block the submitter until the batcher frees space
  kReject,     ///< fail the NEW request's future with RejectedError
  kShedOldest  ///< fail the OLDEST pending future with ShedError, admit new
};

/// The (max batch, max wait) coalescing policy of the dynamic batcher.
struct BatcherPolicy {
  /// Dispatch as soon as this many requests are pending (also the cap on
  /// formed-batch size).
  std::size_t max_batch = 8;
  /// Dispatch a partial batch once the oldest pending request has waited
  /// this many ticks. 0 dispatches whatever is pending immediately
  /// (latency-optimal, occupancy-pessimal).
  std::uint32_t max_wait_ticks = 4;
  /// Duration of one tick.
  std::chrono::microseconds tick{100};
  /// The length dimension: pad-to-max (default, one queue) or
  /// length-bucketed (one queue per bucket + overflow, each with its own
  /// effective (max_batch, max_wait_ticks); batches never mix buckets).
  /// Bucketing is scheduling/accounting-only — payloads are bit-identical
  /// across every mode and bucket-edge choice.
  LengthBucketing bucketing{};
};

struct ServerOptions {
  std::size_t max_queue = 64;  ///< pending-queue bound (admission control)
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  BatcherPolicy batcher{};
  /// Which cluster node this server is (stamped into every
  /// RequestStats.node). 0 for a standalone server; serve::Cluster numbers
  /// its nodes 0..N-1.
  std::uint32_t node_id = 0;
};

class StarServer {
 public:
  /// The model and scheduler must outlive the server; the scheduler must
  /// not be driven concurrently by other callers while the server is live.
  StarServer(const core::BatchEncoderSim& model, sim::BatchScheduler& sched,
             ServerOptions opts = {});
  ~StarServer();  ///< shutdown(): every admitted future resolves first

  StarServer(const StarServer&) = delete;
  StarServer& operator=(const StarServer&) = delete;

  /// Admit one request; the future resolves to the response (or to the
  /// compute/admission exception). Never throws on the submit path itself —
  /// admission failures travel through the future too, so open-loop
  /// drivers need no try/catch.
  [[nodiscard]] std::future<EncoderResponse> submit(EncoderRequest req);
  [[nodiscard]] std::future<AttentionResponse> submit(AttentionRequest req);
  [[nodiscard]] std::future<AnalyticResponse> submit(AnalyticRequest req);

  /// Block until every admitted request has resolved (queue empty and no
  /// batch in flight). New submissions during a drain() may extend it.
  void drain();

  /// Stop admitting, dispatch everything still pending, join the batcher.
  /// Idempotent; called by the destructor. Post-shutdown submits are
  /// rejected (RejectedError) regardless of policy.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  /// Locked copy of the raw accumulator — the cluster's fleet-merge path,
  /// which needs the latency reservoirs themselves (see the fleet-merge
  /// notes on StatsAccumulator), not just the snapshot.
  [[nodiscard]] StatsAccumulator stats_accumulator() const;
  /// Queued, not yet dispatched. Lock-free: an atomic counter kept under
  /// the server mutex, so a router may poll it on every request.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }
  [[nodiscard]] const core::BatchEncoderSim& model() const { return model_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Dispatch-time facts shared by every request of one formed batch.
  struct BatchContext {
    std::uint64_t batch_id = 0;
    std::size_t batch_size = 0;
    Clock::time_point dispatched{};
    std::int64_t padded_len = 0;  ///< billed slot width of this batch
    std::size_t bucket = 0;       ///< queue the batch was formed from
  };

  /// A queued request, type-erased: `run` computes and fulfils the future,
  /// `fail` fulfils it with an exception without running (shed/shutdown).
  struct Pending {
    std::uint64_t id = 0;
    std::int64_t seq_len = 0;
    Clock::time_point enqueued{};
    std::function<void(const BatchContext&)> run;
    std::function<void(std::exception_ptr)> fail;
  };

  template <typename Response, typename ComputeFn>
  std::future<Response> submit_impl(std::int64_t seq_len, double transport_us,
                                    ComputeFn compute);
  void batcher_loop();
  void record_done(const RequestStats& rs, bool ok);
  /// Age-out deadline of queue q's head (q must be non-empty).
  [[nodiscard]] Clock::time_point head_deadline_locked(std::size_t q) const;
  /// The queue whose head has been waiting longest (by admission id);
  /// queues_.size() when everything is empty.
  [[nodiscard]] std::size_t oldest_head_locked() const;

  const core::BatchEncoderSim& model_;
  sim::BatchScheduler& sched_;
  const ServerOptions opts_;

  mutable std::mutex mu_;
  // Each condition variable is notified only when its waiter's decision
  // can change (see the wake rules in submit_impl and batcher_loop).
  std::condition_variable batcher_cv_;  ///< batcher's next decision changed
  std::condition_variable space_cv_;    ///< queue space freed (kBlock)
  std::condition_variable idle_cv_;     ///< fully drained (drain())
  /// One FIFO per batcher queue (pad-to-max: exactly one; bucketed: one
  /// per bucket + the overflow queue). The admission bound `max_queue`
  /// applies to the TOTAL across queues.
  std::vector<std::deque<Pending>> queues_;
  /// Total across queues_; written under mu_, read lock-free by pending().
  std::atomic<std::size_t> pending_{0};
  /// The deadline the batcher sleeps toward; max() while it is idle (no
  /// deadline) or busy (it re-scans before it sleeps again).
  Clock::time_point batcher_deadline_ = Clock::time_point::max();
  std::size_t blocked_submitters_ = 0;  ///< waiting on space_cv_
  std::size_t drain_waiters_ = 0;       ///< waiting on idle_cv_
  bool stopping_ = false;
  bool batch_in_flight_ = false;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t next_batch_id_ = 0;
  StatsAccumulator stats_;

  std::mutex join_mu_;   ///< serialises shutdown()'s join
  std::thread batcher_;  ///< last member: starts after all state exists
};

}  // namespace star::serve
