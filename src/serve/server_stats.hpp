// Aggregate serving metrics: admission counters, queueing/service latency
// distributions and batch occupancy, exposed as an immutable snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/request.hpp"
#include "util/rng.hpp"

namespace star::serve {

/// Point-in-time aggregate view of a StarServer. At the instant of the
/// snapshot, counters obey submitted == admitted + rejected + (submitters
/// still blocked on kBlock admission) and admitted == completed + failed +
/// shed + (still pending/in flight).
struct ServerStats {
  std::uint64_t submitted = 0;   ///< submit() calls (including refused ones)
  std::uint64_t admitted = 0;    ///< entered the pending queue
  std::uint64_t rejected = 0;    ///< refused at admission (kReject / shutdown)
  std::uint64_t shed = 0;        ///< evicted from the queue (kShedOldest)
  std::uint64_t completed = 0;   ///< future resolved with a value
  std::uint64_t failed = 0;      ///< future resolved with a compute exception
  std::uint64_t batches = 0;     ///< batches dispatched to the scheduler
  /// Times the batcher thread woke from its sleep: notifies, timeouts and
  /// spurious wakes alike. A submit wakes it only when the push can change
  /// its next decision, so this grows with batches and deadlines, not with
  /// requests.
  std::uint64_t batcher_wakeups = 0;

  // Latency distributions over completed + failed requests, seconds. Means
  // are exact running sums. The p99s are nearest-rank percentiles of the
  // fixed-size latency reservoir: exact while the server has seen at most
  // StatsAccumulator::kMaxLatencySamples completions, and thereafter an
  // estimate over a uniform *reservoir sample* of all completions so far —
  // not over every completion.
  double queue_wait_mean_s = 0.0;
  double queue_wait_p99_s = 0.0;
  double service_mean_s = 0.0;
  double service_p99_s = 0.0;

  // Formed-batch occupancy (requests per dispatched batch). This counts
  // REQUEST SLOTS only and says nothing about padding; the token-level
  // split below is the honest utilisation measure.
  double batch_occupancy_mean = 0.0;
  std::size_t batch_occupancy_max = 0;

  // Token-level occupancy split. A batch of B requests padded to P tokens
  // dispatches a B x P rectangle of token-slots against a bucket capacity
  // of max_batch x P:
  //   * padded_tokens    = sum over batches of B * P — every slot the
  //     hardware was billed for, padding included.
  //   * effective_tokens = sum over batches of the members' true seq_lens —
  //     the slots that carried real work (padded slots never execute).
  //   * padded_occupancy    = padded_tokens / capacity_tokens
  //   * effective_occupancy = effective_tokens / capacity_tokens
  //     (capacity_tokens = sum of max_batch * P), so effective <=
  //     padded <= 1 always, with equality iff no padding at all.
  //   * padding_waste = 1 - effective_tokens / padded_tokens — the padding
  //     fraction of DISPATCHED work: exactly 0 on fixed-length traffic,
  //     and the figure length-bucketed batching exists to shrink.
  // Before this split, `batch_occupancy_mean` silently counted padded
  // slots as useful work; these fields distinguish them.
  std::uint64_t effective_tokens = 0;
  std::uint64_t padded_tokens = 0;
  std::uint64_t capacity_tokens = 0;
  double padded_occupancy = 0.0;
  double effective_occupancy = 0.0;
  double padding_waste = 0.0;

  // Request-length breakdown over completed + failed requests.
  double seq_len_mean = 0.0;
  std::int64_t seq_len_max = 0;

  /// Per batcher-queue view of the same accounting (index order == queue
  /// order: configured buckets first, then the overflow / pad-to-max
  /// queue). `edge` is the bucket's padded length (0 = pads to its own
  /// batch max). Sums across buckets equal the totals above.
  struct BucketStats {
    std::int64_t edge = 0;
    std::uint64_t requests = 0;  ///< completed + failed from this queue
    std::uint64_t batches = 0;
    double queue_wait_mean_s = 0.0;
    double batch_occupancy_mean = 0.0;
    std::uint64_t effective_tokens = 0;
    std::uint64_t padded_tokens = 0;
    double padding_waste = 0.0;
  };
  std::vector<BucketStats> per_bucket;

  // Per-request shape breakdown over completed + failed requests that
  // carried the knob (num_layers >= 1, i.e. encoder requests) — makes
  // mixed-depth / mixed-shard traffic attributable from the snapshot.
  double num_layers_mean = 0.0;
  std::int64_t num_layers_max = 0;
  double num_shards_mean = 0.0;
  std::int64_t num_shards_max = 0;

  // Device residency over completed + failed requests: LUT-image and
  // weight-upload hit/miss totals and the modelled programming time they
  // charged. programming_time_share relates that modelled reprogramming
  // stall to the observed wall-clock service time (programming / (service
  // + programming)) — zero on warm single-dataset traffic.
  std::uint64_t lut_hits = 0;
  std::uint64_t lut_misses = 0;
  std::uint64_t weight_hits = 0;
  std::uint64_t weight_misses = 0;
  double programming_us_total = 0.0;
  double programming_time_share = 0.0;

  // Cluster transport over completed + failed requests: the modelled
  // front-end -> node hop the router billed (hw::HostLink round trip).
  // Zero on a standalone server — requests submitted directly carry no
  // transport charge.
  double transport_us_total = 0.0;
  double transport_us_mean = 0.0;

  // Memoized analytic cost cache (core::CostCache) of the model behind
  // this server, snapshotted by StarServer::stats() at the same instant as
  // the accumulator copy. Model-lifetime counters (the model may predate
  // and outlive the server); conservation: lookups == hits + misses +
  // bypasses (bypasses = cold-keyed lookups, computed fresh by design —
  // see core/cost_cache.hpp). hit_rate = hits / lookups.
  std::uint64_t cost_cache_lookups = 0;
  std::uint64_t cost_cache_hits = 0;
  std::uint64_t cost_cache_misses = 0;
  std::uint64_t cost_cache_bypasses = 0;
  double cost_cache_hit_rate = 0.0;
};

/// Mutable accumulator behind ServerStats. NOT internally synchronised:
/// StarServer guards every call with its own mutex.
///
/// Memory is bounded for arbitrarily long-lived servers: means come from
/// exact running sums, while percentiles come from a fixed-size uniform
/// reservoir (Vitter's Algorithm R) over all completions so far.
class StatsAccumulator {
 public:
  /// Latency samples kept for percentile estimation (16 B per slot).
  static constexpr std::size_t kMaxLatencySamples = 1 << 16;

  /// Declare the batcher's queue layout (one edge per queue, 0 = pads to
  /// batch max) so per-bucket accounting has stable slots. Optional: the
  /// default layout is the single pad-to-max queue.
  void configure_buckets(std::vector<std::int64_t> edges);

  void on_submitted() { ++submitted_; }
  void on_admitted() { ++admitted_; }
  void on_rejected() { ++rejected_; }
  void on_shed() { ++shed_; }
  void on_batcher_wakeup() { ++batcher_wakeups_; }
  /// Record one dispatched batch: `occupancy` request slots from queue
  /// `bucket`, carrying `effective_tokens` real tokens inside a
  /// `padded_tokens` rectangle out of `capacity_tokens` of bucket capacity.
  void on_batch(std::size_t occupancy, std::size_t bucket,
                std::uint64_t effective_tokens, std::uint64_t padded_tokens,
                std::uint64_t capacity_tokens);
  /// Record one resolved request. Reads the phase timings, the request
  /// shape (seq_len/bucket always; num_layers/num_shards when >= 1) and
  /// the residency charges from `rs`.
  void on_done(const RequestStats& rs, bool ok);

  [[nodiscard]] ServerStats snapshot() const;

  // Fleet-merge access (serve::Cluster). Percentiles of a MERGED view must
  // NOT average per-node p99s — a p99 is not linear, and averaging the
  // quantiles of N skewed nodes can sit far below the fleet's true tail.
  // Instead the cluster concatenates the nodes' latency reservoirs and
  // index-selects over the union with serve::percentile. Sampling
  // semantics of that merge: each node's reservoir is a uniform sample of
  // THAT node's completions (exact until kMaxLatencySamples, Algorithm R
  // after), so the concatenation weights node n by
  // min(node_n_completions, kMaxLatencySamples) rather than by its exact
  // completion count. Until any node overflows its reservoir the merged
  // percentile is exact over every fleet completion; past that point it is
  // an estimate that can under-weight very hot nodes' tails — the same
  // approximation each node's own p99 already makes, never the
  // averaging-of-quantiles error.
  [[nodiscard]] const std::vector<double>& queue_wait_samples() const {
    return queue_wait_s_;
  }
  [[nodiscard]] const std::vector<double>& service_samples() const {
    return service_s_;
  }

 private:
  /// Per-queue accounting slot (see ServerStats::BucketStats).
  struct BucketAccum {
    std::int64_t edge = 0;
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t occupancy_sum = 0;
    double queue_wait_sum_s = 0.0;
    std::uint64_t effective_tokens = 0;
    std::uint64_t padded_tokens = 0;
  };

  BucketAccum& bucket_slot(std::size_t bucket);

  std::uint64_t submitted_ = 0, admitted_ = 0, rejected_ = 0, shed_ = 0;
  std::uint64_t completed_ = 0, failed_ = 0, batches_ = 0;
  std::uint64_t batcher_wakeups_ = 0;
  std::uint64_t occupancy_sum_ = 0;
  std::size_t occupancy_max_ = 0;
  double queue_wait_sum_s_ = 0.0;
  double service_sum_s_ = 0.0;
  // Token-level occupancy split (padded vs effective vs capacity).
  std::uint64_t effective_tokens_ = 0;
  std::uint64_t padded_tokens_ = 0;
  std::uint64_t capacity_tokens_ = 0;
  std::uint64_t seq_len_sum_ = 0;
  std::int64_t seq_len_max_ = 0;
  std::vector<BucketAccum> buckets_{BucketAccum{}};  ///< default: one pad-to-max queue
  // Shape breakdown (encoder requests: num_layers >= 1).
  std::uint64_t shaped_requests_ = 0;
  std::uint64_t num_layers_sum_ = 0;
  std::int64_t num_layers_max_ = 0;
  std::uint64_t num_shards_sum_ = 0;
  std::int64_t num_shards_max_ = 0;
  // Residency accounting.
  std::uint64_t lut_hits_ = 0, lut_misses_ = 0;
  std::uint64_t weight_hits_ = 0, weight_misses_ = 0;
  double programming_sum_us_ = 0.0;
  double transport_sum_us_ = 0.0;
  std::vector<double> queue_wait_s_;  ///< reservoir, paired by index
  std::vector<double> service_s_;
  Rng reservoir_rng_{0x57A75E54};
};

/// p in [0, 1] quantile of `samples` (nearest-rank); 0 when empty. Selects
/// via an index buffer, so `samples` itself is neither copied nor reordered.
double percentile(const std::vector<double>& samples, double p);

/// Contract audit of one accumulator's latency reservoirs (see the
/// fleet-merge notes above): the queue-wait and service reservoirs are
/// index-paired (same size — each slot is one request's pair), never exceed
/// kMaxLatencySamples, and never hold more samples than requests resolved.
/// Called by StatsAccumulator::snapshot() and per node by Cluster::stats();
/// a no-op in builds without STAR_CONTRACT (contracts_enabled() == false).
void audit_reservoir_pair(const std::vector<double>& queue_wait,
                          const std::vector<double>& service,
                          std::uint64_t done);

}  // namespace star::serve
