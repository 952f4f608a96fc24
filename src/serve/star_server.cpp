#include "serve/star_server.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::serve {

StarServer::StarServer(const core::BatchEncoderSim& model,
                       sim::BatchScheduler& sched, ServerOptions opts)
    : model_(model), sched_(sched), opts_(opts) {
  require(opts_.max_queue >= 1, "StarServer: max_queue must be >= 1");
  require(opts_.batcher.max_batch >= 1, "StarServer: max_batch must be >= 1");
  require(opts_.batcher.tick.count() >= 0,
          "StarServer: tick duration must be non-negative");
  opts_.batcher.bucketing.validate();
  const std::size_t num_queues = opts_.batcher.bucketing.num_queues();
  queues_.resize(num_queues);
  std::vector<std::int64_t> edges;
  edges.reserve(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) {
    edges.push_back(opts_.batcher.bucketing.edge_of(q));
  }
  stats_.configure_buckets(std::move(edges));
  batcher_ = std::thread([this] { batcher_loop(); });
}

StarServer::~StarServer() { shutdown(); }

StarServer::Clock::time_point StarServer::head_deadline_locked(
    std::size_t q) const {
  return queues_[q].front().enqueued +
         opts_.batcher.tick * opts_.batcher.bucketing.max_wait_for(
                                  q, opts_.batcher.max_wait_ticks);
}

std::size_t StarServer::oldest_head_locked() const {
  std::size_t best = queues_.size();
  std::uint64_t best_id = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (queues_[q].empty()) {
      continue;
    }
    // Admission ids are strictly increasing, so the smallest head id is
    // the globally oldest pending request.
    if (best == queues_.size() || queues_[q].front().id < best_id) {
      best = q;
      best_id = queues_[q].front().id;
    }
  }
  return best;
}

template <typename Response, typename ComputeFn>
std::future<Response> StarServer::submit_impl(std::int64_t seq_len,
                                              double transport_us,
                                              ComputeFn compute) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = promise->get_future();

  Pending p;
  p.seq_len = seq_len;
  p.enqueued = Clock::now();
  p.fail = [promise](std::exception_ptr e) { promise->set_exception(e); };

  Pending victim;  // shed target; its future is failed outside the lock
  bool have_victim = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    stats_.on_submitted();
    if (!stopping_ && pending() >= opts_.max_queue) {
      switch (opts_.admission) {
        case AdmissionPolicy::kBlock:
          ++blocked_submitters_;
          space_cv_.wait(lk, [&] {
            return stopping_ || pending() < opts_.max_queue;
          });
          --blocked_submitters_;
          // Re-stamp: queue_wait measures admission -> dispatch (not the
          // submitter's blocked time) and the batcher's age-out window
          // starts at admission, not at the original submit call.
          p.enqueued = Clock::now();
          break;
        case AdmissionPolicy::kReject:
          stats_.on_rejected();
          lk.unlock();
          promise->set_exception(std::make_exception_ptr(RejectedError(
              "StarServer: admission queue full (max_queue=" +
              std::to_string(opts_.max_queue) + ", policy=reject)")));
          return fut;
        case AdmissionPolicy::kShedOldest: {
          // Shed the GLOBALLY oldest pending request, whatever bucket it
          // waits in — admission control is a server-wide property.
          const std::size_t victim_q = oldest_head_locked();
          victim = std::move(queues_[victim_q].front());
          queues_[victim_q].pop_front();
          pending_.fetch_sub(1, std::memory_order_relaxed);
          stats_.on_shed();
          have_victim = true;
          break;
        }
      }
    }
    if (stopping_) {
      stats_.on_rejected();
      lk.unlock();
      if (have_victim) {
        // Unreachable in practice (shed only happens pre-stop), but never
        // leave a popped request's future unresolved.
        victim.fail(std::make_exception_ptr(
            RejectedError("StarServer: shut down while pending")));
      }
      promise->set_exception(std::make_exception_ptr(
          RejectedError("StarServer: submit after shutdown")));
      return fut;
    }
    p.id = next_request_id_++;
    const std::uint64_t id = p.id;
    const auto enqueued = p.enqueued;
    p.run = [this, promise, compute = std::move(compute), enqueued, id,
             seq_len, transport_us](const BatchContext& ctx) {
      const double queue_wait =
          std::chrono::duration<double>(ctx.dispatched - enqueued).count();
      const auto t0 = Clock::now();
      try {
        // compute() pre-fills the request-shape and residency fields of
        // resp.stats; only the placement/timing facts are stamped here.
        Response resp = compute();
        const double service =
            std::chrono::duration<double>(Clock::now() - t0).count();
        resp.stats.request_id = id;
        resp.stats.batch_id = ctx.batch_id;
        resp.stats.batch_size = ctx.batch_size;
        resp.stats.queue_wait_s = queue_wait;
        resp.stats.service_s = service;
        resp.stats.seq_len = seq_len;
        resp.stats.padded_len = ctx.padded_len;
        resp.stats.bucket = ctx.bucket;
        resp.stats.node = opts_.node_id;
        resp.stats.transport_us = transport_us;
        record_done(resp.stats, /*ok=*/true);
        promise->set_value(std::move(resp));
      } catch (...) {
        const double service =
            std::chrono::duration<double>(Clock::now() - t0).count();
        RequestStats failed;
        failed.request_id = id;
        failed.batch_id = ctx.batch_id;
        failed.batch_size = ctx.batch_size;
        failed.queue_wait_s = queue_wait;
        failed.service_s = service;
        failed.seq_len = seq_len;
        failed.padded_len = ctx.padded_len;
        failed.bucket = ctx.bucket;
        failed.node = opts_.node_id;
        failed.transport_us = transport_us;
        record_done(failed, /*ok=*/false);
        promise->set_exception(std::current_exception());
      }
    };
    stats_.on_admitted();
    const std::size_t q = opts_.batcher.bucketing.bucket_of(seq_len);
    queues_[q].push_back(std::move(p));
    const std::size_t depth = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Wake the batcher only when this push can change its next decision:
    // the queue reaches its size trigger, admission fills under kBlock, or
    // a new head ages out before the deadline the batcher sleeps toward.
    // Any other push is picked up by the batcher's next scan.
    bool wake = queues_[q].size() == opts_.batcher.bucketing.max_batch_for(
                                         q, opts_.batcher.max_batch) ||
                (opts_.admission == AdmissionPolicy::kBlock &&
                 depth == opts_.max_queue);
    if (queues_[q].size() == 1) {
      const Clock::time_point deadline = head_deadline_locked(q);
      if (deadline < batcher_deadline_) {
        batcher_deadline_ = deadline;
        wake = true;
      }
    }
    if (wake) {
      batcher_cv_.notify_one();
    }
  }
  if (have_victim) {
    victim.fail(std::make_exception_ptr(ShedError(
        "StarServer: request shed by a newer arrival (policy=shed-oldest)")));
  }
  return fut;
}

std::future<EncoderResponse> StarServer::submit(EncoderRequest req) {
  const auto seq_len = static_cast<std::int64_t>(req.input.rows());
  const double transport_us = req.transport_us;
  return submit_impl<EncoderResponse>(seq_len, transport_us,
                                      [this, req = std::move(req)] {
    EncoderResponse resp;
    core::ResidencyCharge charge;
    resp.output = model_.run_encoder_one(req.input,
                                         workload::sequence_seed(req.run_seed, 0),
                                         req.num_layers, req.num_shards,
                                         req.dataset, &charge);
    resp.stats.num_layers = req.num_layers;
    resp.stats.num_shards = req.num_shards;
    resp.stats.programming_us = charge.programming.latency.as_us();
    resp.stats.lut_hits = charge.lut_hits;
    resp.stats.lut_misses = charge.lut_misses;
    resp.stats.weight_hits = charge.weight_hits;
    resp.stats.weight_misses = charge.weight_misses;
    return resp;
  });
}

std::future<AttentionResponse> StarServer::submit(AttentionRequest req) {
  const auto seq_len = static_cast<std::int64_t>(req.qkv.q.rows());
  const double transport_us = req.transport_us;
  return submit_impl<AttentionResponse>(seq_len, transport_us,
                                        [this, req = std::move(req)] {
    AttentionResponse resp;
    resp.result = model_.run_attention_one(
        req.qkv, workload::sequence_seed(req.run_seed, 0));
    return resp;
  });
}

std::future<AnalyticResponse> StarServer::submit(AnalyticRequest req) {
  return submit_impl<AnalyticResponse>(req.seq_len, req.transport_us,
                                       [this, req] {
    AnalyticResponse resp;
    core::ResidencyCharge charge;
    resp.result = model_.run_analytic_one(req.seq_len, req.dataset, &charge);
    resp.stats.programming_us = charge.programming.latency.as_us();
    resp.stats.lut_hits = charge.lut_hits;
    resp.stats.lut_misses = charge.lut_misses;
    return resp;
  });
}

void StarServer::batcher_loop() {
  const LengthBucketing& bucketing = opts_.batcher.bucketing;
  // Reused across dispatches (cleared, capacity kept): forming a batch on
  // the steady-state path allocates nothing once capacity reaches the
  // largest formed batch.
  std::vector<Pending> formed;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Coalesce per queue: a queue is dispatchable once it holds its
    // effective max_batch, once its head ages out past its effective
    // max_wait window, or on shutdown. Under kBlock a full ADMISSION
    // queue (total across buckets) also dispatches — submitters are
    // stalled and no size trigger may ever fire when max_batch >
    // max_queue. Under kReject/kShedOldest a full queue is the admission
    // policy's domain, so the per-queue (max_batch, max_wait) policy is
    // honoured strictly. Deadlines are re-derived from the CURRENT heads
    // each pass: kShedOldest may evict a head mid-wait, and the
    // replacement is owed its own full age-out window.
    //
    // Among several dispatchable queues the one whose head waited longest
    // wins (FIFO fairness across buckets); with none, the batcher sleeps
    // until the earliest head deadline.
    const bool admission_full = opts_.admission == AdmissionPolicy::kBlock &&
                                pending() >= opts_.max_queue;
    const auto now = Clock::now();
    std::size_t dispatch_q = queues_.size();
    std::uint64_t best_id = 0;
    Clock::time_point earliest_deadline = Clock::time_point::max();
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (queues_[q].empty()) {
        continue;
      }
      const auto deadline = head_deadline_locked(q);
      if (stopping_ || admission_full ||
          queues_[q].size() >=
              bucketing.max_batch_for(q, opts_.batcher.max_batch) ||
          now >= deadline) {
        if (dispatch_q == queues_.size() || queues_[q].front().id < best_id) {
          dispatch_q = q;
          best_id = queues_[q].front().id;
        }
      } else {
        earliest_deadline = std::min(earliest_deadline, deadline);
      }
    }
    if (dispatch_q == queues_.size()) {
      if (stopping_) {
        return;  // every queue is empty: shutdown dispatched them all
      }
      // The one sleep point. Submitters read batcher_deadline_ to decide
      // whether a push must wake the batcher; every return is a re-scan.
      batcher_deadline_ = earliest_deadline;
      if (earliest_deadline == Clock::time_point::max()) {
        batcher_cv_.wait(lk);
      } else {
        batcher_cv_.wait_until(lk, earliest_deadline);
      }
      batcher_deadline_ = Clock::time_point::max();
      stats_.on_batcher_wakeup();
      continue;
    }

    std::deque<Pending>& queue = queues_[dispatch_q];
    formed.clear();
    const std::size_t take = std::min(
        queue.size(), bucketing.max_batch_for(dispatch_q, opts_.batcher.max_batch));
    formed.reserve(take);
    std::int64_t batch_max_len = 0;
    std::int64_t effective = 0;
    for (std::size_t i = 0; i < take; ++i) {
      batch_max_len = std::max(batch_max_len, queue.front().seq_len);
      effective += queue.front().seq_len;
      formed.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    pending_.fetch_sub(take, std::memory_order_relaxed);
    const std::int64_t padded_len =
        bucketing.padded_len(dispatch_q, batch_max_len);
    // The billed slot width covers every member (LengthBucketing routes a
    // request only to a bucket whose edge fits it), so the token ledger's
    // effective <= padded holds per batch by construction.
    STAR_CONTRACT(padded_len >= batch_max_len,
                  "batcher: billed slot width below the batch's longest member");
    const BatchContext ctx{next_batch_id_++, formed.size(), Clock::now(),
                           padded_len, dispatch_q};
    // Token accounting: `formed.size() * padded_len` billed slots holding
    // `effective` real tokens, out of a bucket capacity of max_batch rows
    // at the same padded width. Padded slots never execute — they exist
    // only in this accounting.
    stats_.on_batch(
        formed.size(), dispatch_q, static_cast<std::uint64_t>(effective),
        static_cast<std::uint64_t>(formed.size()) *
            static_cast<std::uint64_t>(padded_len),
        static_cast<std::uint64_t>(
            bucketing.max_batch_for(dispatch_q, opts_.batcher.max_batch)) *
            static_cast<std::uint64_t>(padded_len));
    batch_in_flight_ = true;
    if (blocked_submitters_ > 0) {
      space_cv_.notify_all();
    }
    lk.unlock();
    // Jobs catch their own exceptions (into their futures), so the
    // scheduler never rethrows into the serving loop.
    sched_.run(formed.size(), [&](std::size_t i) { formed[i].run(ctx); });
    lk.lock();
    batch_in_flight_ = false;
    if (drain_waiters_ > 0 && pending() == 0) {
      idle_cv_.notify_all();
    }
  }
}

void StarServer::record_done(const RequestStats& rs, bool ok) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.on_done(rs, ok);
}

void StarServer::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  ++drain_waiters_;
  idle_cv_.wait(lk, [&] { return pending() == 0 && !batch_in_flight_; });
  --drain_waiters_;
}

void StarServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  batcher_cv_.notify_all();
  space_cv_.notify_all();
  {
    // Serialise concurrent shutdown() calls around the join.
    std::lock_guard<std::mutex> jl(join_mu_);
    if (batcher_.joinable()) {
      batcher_.join();
    }
  }
}

StatsAccumulator StarServer::stats_accumulator() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

ServerStats StarServer::stats() const {
  // Copy the accumulator under the lock; the percentile selects over the
  // latency reservoirs run after release so a polling monitor never stalls
  // submit()/record_done()/the batcher for two O(n) nth_elements.
  StatsAccumulator copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    copy = stats_;
  }
  ServerStats s = copy.snapshot();
  // Overlay the model's analytic cost-cache ledger (internally
  // synchronized; model-lifetime counters — see the ServerStats field
  // docs). Audited here so every stats() poll re-proves conservation.
  const core::CostCacheStats cc = model_.cost_cache().stats();
  core::audit_cost_ledger(cc);
  s.cost_cache_lookups = cc.lookups;
  s.cost_cache_hits = cc.hits;
  s.cost_cache_misses = cc.misses;
  s.cost_cache_bypasses = cc.bypasses;
  s.cost_cache_hit_rate = cc.hit_rate();
  return s;
}

}  // namespace star::serve
