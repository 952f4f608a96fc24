#include "serve/server_stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::serve {

double percentile(const std::vector<double>& samples, double p) {
  require(p >= 0.0 && p <= 1.0, "percentile: p must be in [0, 1]");
  if (samples.empty()) {
    return 0.0;
  }
  // Nearest-rank: the smallest sample >= p of the distribution's mass.
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * static_cast<double>(samples.size())) - 1.0, 0.0,
                 static_cast<double>(samples.size() - 1)));
  // Select through an index buffer rather than copying the reservoir:
  // snapshot() calls this twice per poll and the reservoir caps at
  // kMaxLatencySamples, so the two by-value copies were its whole cost.
  std::vector<std::uint32_t> idx(samples.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(rank),
                   idx.end(), [&samples](std::uint32_t a, std::uint32_t b) {
                     return samples[a] < samples[b];
                   });
  return samples[idx[rank]];
}

void StatsAccumulator::configure_buckets(std::vector<std::int64_t> edges) {
  require(!edges.empty(), "configure_buckets: at least one queue required");
  buckets_.clear();
  buckets_.reserve(edges.size());
  for (const std::int64_t e : edges) {
    BucketAccum b;
    b.edge = e;
    buckets_.push_back(b);
  }
}

StatsAccumulator::BucketAccum& StatsAccumulator::bucket_slot(std::size_t bucket) {
  // Out-of-layout buckets (a caller that never configured) fold into the
  // last slot rather than dropping the sample: conservation laws (sums
  // across buckets == totals) must hold unconditionally.
  return buckets_[std::min(bucket, buckets_.size() - 1)];
}

void StatsAccumulator::on_batch(std::size_t occupancy, std::size_t bucket,
                                std::uint64_t effective_tokens,
                                std::uint64_t padded_tokens,
                                std::uint64_t capacity_tokens) {
  // Token-ledger balance: a batch's real tokens fit inside its padded
  // rectangle, which fits inside the bucket's capacity (server_stats.hpp
  // documents effective <= padded <= capacity as an always-invariant).
  STAR_CONTRACT(effective_tokens <= padded_tokens,
                "token ledger: effective tokens exceed the padded rectangle");
  STAR_CONTRACT(padded_tokens <= capacity_tokens,
                "token ledger: padded rectangle exceeds bucket capacity");
  STAR_CONTRACT(occupancy >= 1, "token ledger: a dispatched batch is never empty");
  ++batches_;
  occupancy_sum_ += occupancy;
  occupancy_max_ = std::max(occupancy_max_, occupancy);
  effective_tokens_ += effective_tokens;
  padded_tokens_ += padded_tokens;
  capacity_tokens_ += capacity_tokens;
  BucketAccum& b = bucket_slot(bucket);
  ++b.batches;
  b.occupancy_sum += occupancy;
  b.effective_tokens += effective_tokens;
  b.padded_tokens += padded_tokens;
}

void StatsAccumulator::on_done(const RequestStats& rs, bool ok) {
  (ok ? completed_ : failed_) += 1;
  queue_wait_sum_s_ += rs.queue_wait_s;
  service_sum_s_ += rs.service_s;
  if (rs.num_layers >= 1) {
    ++shaped_requests_;
    num_layers_sum_ += static_cast<std::uint64_t>(rs.num_layers);
    num_layers_max_ = std::max(num_layers_max_, rs.num_layers);
    num_shards_sum_ += static_cast<std::uint64_t>(rs.num_shards);
    num_shards_max_ = std::max(num_shards_max_, rs.num_shards);
  }
  if (rs.seq_len >= 1) {
    seq_len_sum_ += static_cast<std::uint64_t>(rs.seq_len);
    seq_len_max_ = std::max(seq_len_max_, rs.seq_len);
  }
  BucketAccum& b = bucket_slot(rs.bucket);
  ++b.requests;
  b.queue_wait_sum_s += rs.queue_wait_s;
  lut_hits_ += rs.lut_hits;
  lut_misses_ += rs.lut_misses;
  weight_hits_ += rs.weight_hits;
  weight_misses_ += rs.weight_misses;
  programming_sum_us_ += rs.programming_us;
  transport_sum_us_ += rs.transport_us;
  const std::uint64_t seen = completed_ + failed_;
  if (queue_wait_s_.capacity() == 0) {
    // The reservoir is fixed-size: take it in one allocation (its pages are
    // touched only as slots fill) instead of doubling through 16 copies on
    // the serving thread, each leaving its predecessor as a heap hole.
    queue_wait_s_.reserve(kMaxLatencySamples);
    service_s_.reserve(kMaxLatencySamples);
  }
  if (queue_wait_s_.size() < kMaxLatencySamples) {
    queue_wait_s_.push_back(rs.queue_wait_s);
    service_s_.push_back(rs.service_s);
  } else {
    // Algorithm R: the reservoir stays a uniform sample of all `seen`
    // completions. The two vectors are replaced at the same slot so each
    // index remains one request's (queue_wait, service) pair.
    const auto j = static_cast<std::uint64_t>(reservoir_rng_.uniform_int(
        0, static_cast<std::int64_t>(seen) - 1));
    if (j < kMaxLatencySamples) {
      queue_wait_s_[static_cast<std::size_t>(j)] = rs.queue_wait_s;
      service_s_[static_cast<std::size_t>(j)] = rs.service_s;
    }
  }
}

void audit_reservoir_pair(const std::vector<double>& queue_wait,
                          const std::vector<double>& service,
                          std::uint64_t done) {
  STAR_CONTRACT(queue_wait.size() == service.size(),
                "latency reservoirs: queue-wait and service must stay "
                "index-paired (one slot per resolved request)");
  STAR_CONTRACT(queue_wait.size() <= StatsAccumulator::kMaxLatencySamples,
                "latency reservoirs: reservoir overflowed its fixed bound");
  STAR_CONTRACT(queue_wait.size() <= done,
                "latency reservoirs: more samples than resolved requests");
}

ServerStats StatsAccumulator::snapshot() const {
  // Admission-queue conservation at snapshot time (see the ServerStats
  // docstring): every submit was admitted, rejected, or is still blocked;
  // every admitted request resolved (completed/failed), was shed, or is
  // still pending — so the resolved-side sums can never exceed the
  // upstream counters.
  STAR_CONTRACT(admitted_ + rejected_ <= submitted_,
                "admission conservation: admitted + rejected exceed submitted");
  STAR_CONTRACT(completed_ + failed_ + shed_ <= admitted_,
                "admission conservation: resolved + shed requests exceed admitted");
  audit_reservoir_pair(queue_wait_s_, service_s_, completed_ + failed_);
  if constexpr (contracts_enabled()) {
    // Bucket-sum conservation: the per-queue ledgers partition the totals
    // exactly (bucket_slot folds out-of-layout samples into the last slot
    // precisely so these sums hold unconditionally).
    std::uint64_t requests = 0, batches = 0, effective = 0, padded = 0;
    for (const BucketAccum& b : buckets_) {
      requests += b.requests;
      batches += b.batches;
      effective += b.effective_tokens;
      padded += b.padded_tokens;
    }
    STAR_CONTRACT(requests == completed_ + failed_,
                  "bucket conservation: per-bucket requests must sum to total");
    STAR_CONTRACT(batches == batches_,
                  "bucket conservation: per-bucket batches must sum to total");
    STAR_CONTRACT(effective == effective_tokens_ && padded == padded_tokens_,
                  "bucket conservation: per-bucket token ledgers must sum to total");
  }
  ServerStats s;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.completed = completed_;
  s.failed = failed_;
  s.batches = batches_;
  s.batcher_wakeups = batcher_wakeups_;
  const std::uint64_t done = completed_ + failed_;
  s.queue_wait_mean_s =
      done == 0 ? 0.0 : queue_wait_sum_s_ / static_cast<double>(done);
  s.queue_wait_p99_s = percentile(queue_wait_s_, 0.99);
  s.service_mean_s =
      done == 0 ? 0.0 : service_sum_s_ / static_cast<double>(done);
  s.service_p99_s = percentile(service_s_, 0.99);
  s.batch_occupancy_mean =
      batches_ == 0 ? 0.0
                    : static_cast<double>(occupancy_sum_) /
                          static_cast<double>(batches_);
  s.batch_occupancy_max = occupancy_max_;
  s.effective_tokens = effective_tokens_;
  s.padded_tokens = padded_tokens_;
  s.capacity_tokens = capacity_tokens_;
  if (capacity_tokens_ > 0) {
    s.padded_occupancy = static_cast<double>(padded_tokens_) /
                         static_cast<double>(capacity_tokens_);
    s.effective_occupancy = static_cast<double>(effective_tokens_) /
                            static_cast<double>(capacity_tokens_);
  }
  if (padded_tokens_ > 0) {
    s.padding_waste = 1.0 - static_cast<double>(effective_tokens_) /
                                static_cast<double>(padded_tokens_);
  }
  if (done > 0) {
    s.seq_len_mean = static_cast<double>(seq_len_sum_) / static_cast<double>(done);
  }
  s.seq_len_max = seq_len_max_;
  s.per_bucket.reserve(buckets_.size());
  for (const BucketAccum& b : buckets_) {
    ServerStats::BucketStats out;
    out.edge = b.edge;
    out.requests = b.requests;
    out.batches = b.batches;
    out.queue_wait_mean_s =
        b.requests == 0 ? 0.0
                        : b.queue_wait_sum_s / static_cast<double>(b.requests);
    out.batch_occupancy_mean =
        b.batches == 0 ? 0.0
                       : static_cast<double>(b.occupancy_sum) /
                             static_cast<double>(b.batches);
    out.effective_tokens = b.effective_tokens;
    out.padded_tokens = b.padded_tokens;
    out.padding_waste =
        b.padded_tokens == 0
            ? 0.0
            : 1.0 - static_cast<double>(b.effective_tokens) /
                        static_cast<double>(b.padded_tokens);
    s.per_bucket.push_back(out);
  }
  if (shaped_requests_ > 0) {
    const auto shaped = static_cast<double>(shaped_requests_);
    s.num_layers_mean = static_cast<double>(num_layers_sum_) / shaped;
    s.num_shards_mean = static_cast<double>(num_shards_sum_) / shaped;
  }
  s.num_layers_max = num_layers_max_;
  s.num_shards_max = num_shards_max_;
  s.lut_hits = lut_hits_;
  s.lut_misses = lut_misses_;
  s.weight_hits = weight_hits_;
  s.weight_misses = weight_misses_;
  s.programming_us_total = programming_sum_us_;
  const double programming_s = programming_sum_us_ * 1e-6;
  s.programming_time_share =
      programming_s > 0.0 ? programming_s / (service_sum_s_ + programming_s)
                          : 0.0;
  s.transport_us_total = transport_sum_us_;
  s.transport_us_mean =
      done == 0 ? 0.0 : transport_sum_us_ / static_cast<double>(done);
  return s;
}

}  // namespace star::serve
