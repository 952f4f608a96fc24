// Cluster-scale serving: a residency-aware multi-chip router.
//
// One simulated STAR chip is not "millions of users". serve::Cluster owns N
// independent NODE instances — each a full serving engine with its own
// core::BatchEncoderSim (and therefore its own xbar::ResidencyManager), its
// own sim::BatchScheduler worker pool and its own StarServer dynamic
// batcher — behind the same single-request submit() -> std::future front
// end StarServer exposes. A pluggable RoutingPolicy decides which node each
// request lands on:
//
//   * round-robin   — node (i mod N): perfect long-run balance, blind to
//     state.
//   * least-loaded  — the node with the shallowest pending queue at submit
//     time (queue-depth snapshot; ties break to the lowest node index).
//   * affinity      — the node whose residency cache already holds the
//     request's dataset LUT/CAM image, so steady mixed-dataset traffic
//     stops paying reprogramming churn. Load-imbalance escape hatch: when
//     every resident node's queue is more than `affinity_max_imbalance`
//     requests deeper than the shallowest queue in the fleet (or no node
//     holds the image yet), the policy falls back to least-loaded — trading
//     a cold programming miss for balance, the tension this router exists
//     to measure.
//
// The front-end -> node hop is an explicit hw::HostLink transport cost (per
// request: request payload down + response payload back), billed into
// RequestStats.transport_us and the fleet ClusterStats — the same move
// hw::HTree made for the intra-chip interconnect. Like residency and
// sharding, transport and routing are ACCOUNTING-ONLY and therefore
// payload-invariant by construction.
//
// Determinism contract (inherited, per node): every node's model is
// constructed from the same (StarConfig, BertConfig, weight_seed,
// stack_depth), so a response payload depends ONLY on (request payload,
// run_seed) — never on the routing policy, the node count, the thread
// count, or which node actually served it. Every response is bit-identical
// to a solo closed-batch run via the workload::sequence_seed rule
// (tests/test_cluster.cpp pins this across policy x nodes x threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/batch_encoder.hpp"
#include "hw/interconnect.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"

namespace star::serve {

/// The built-in routing policies (a custom RoutingPolicy can be injected
/// through the Cluster constructor instead).
enum class RoutePolicyKind {
  kRoundRobin,
  kLeastLoaded,
  kAffinity,
};

[[nodiscard]] const char* to_string(RoutePolicyKind kind);
/// Parse "rr" / "least-loaded" / "affinity" (the bench flag spellings).
[[nodiscard]] std::optional<RoutePolicyKind> parse_route_policy(
    std::string_view name);

/// What the router knows about one node at routing time. `queue_depth` is
/// the node's pending-queue snapshot (admitted, not yet dispatched; read
/// lock-free, so it may lag a concurrent submit or dispatch);
/// `lut_resident` is whether the node's residency cache currently holds the
/// request's dataset LUT/CAM image (always true for Dataset::kDefault —
/// every node installs its configured format at construction).
struct NodeSnapshot {
  std::size_t node = 0;
  std::size_t queue_depth = 0;
  bool lut_resident = false;
};

/// A routing decision: given the per-node snapshots for one request, pick
/// the node it is submitted to. Called under the cluster's routing lock
/// (implementations may keep unsynchronised state); `nodes` is never empty
/// and the returned index must be < nodes.size().
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  [[nodiscard]] virtual std::size_t route(
      const std::vector<NodeSnapshot>& nodes) = 0;
};

/// Build one of the built-in policies. `affinity_max_imbalance` is the
/// escape-hatch threshold of the affinity policy (ignored by the others):
/// a resident node may be at most this many requests deeper than the
/// fleet's shallowest queue before balance wins over residency.
[[nodiscard]] std::unique_ptr<RoutingPolicy> make_route_policy(
    RoutePolicyKind kind, std::size_t affinity_max_imbalance = 8);

struct ClusterOptions {
  /// Chip/node instances behind the front end.
  std::size_t num_nodes = 1;
  /// Worker threads of each node's BatchScheduler pool (the
  /// sim::BatchScheduler convention: 0 = hardware concurrency).
  int threads_per_node = 1;
  /// Which built-in policy routes requests (unless a custom RoutingPolicy
  /// is passed to the constructor).
  RoutePolicyKind policy = RoutePolicyKind::kRoundRobin;
  /// Affinity escape hatch: max queue-depth gap (vs the fleet minimum) a
  /// resident node may have before the request routes by load instead.
  std::size_t affinity_max_imbalance = 8;
  /// Per-node admission/batcher configuration; node_id is overwritten per
  /// node (0..N-1).
  ServerOptions server{};
  /// The front-end -> node transport model. Default: free (a
  /// default-constructed HostLink), the single-chip legacy accounting;
  /// hw::HostLink::host_default() is the representative board fabric.
  hw::HostLink link{};
  /// Per-node model construction parameters (every node gets the SAME
  /// model — that is what makes routing payload-invariant).
  std::uint64_t weight_seed = 0xB127;
  std::int64_t stack_depth = 1;
};

/// Fleet-wide snapshot: per-node ServerStats plus merged totals. Counters
/// are exact sums; means are completion-weighted merges of exact sums; the
/// wait/service p99s are nearest-rank percentiles over the CONCATENATED
/// per-node latency reservoirs (see the fleet-merge notes on
/// serve::StatsAccumulator — never an average of per-node p99s).
struct ClusterStats {
  std::size_t num_nodes = 0;

  // Fleet admission/completion totals (sums over nodes; the conservation
  // law fleet == sum(per_node) is pinned by tests/test_cluster.cpp).
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batcher_wakeups = 0;

  // Fleet latency view (merged as documented above).
  double queue_wait_mean_s = 0.0;
  double queue_wait_p99_s = 0.0;
  double service_mean_s = 0.0;
  double service_p99_s = 0.0;

  // Fleet occupancy (token sums across nodes, same semantics as
  // ServerStats).
  double batch_occupancy_mean = 0.0;
  std::uint64_t effective_tokens = 0;
  std::uint64_t padded_tokens = 0;
  std::uint64_t capacity_tokens = 0;
  double effective_occupancy = 0.0;
  double padded_occupancy = 0.0;
  double padding_waste = 0.0;

  // Fleet residency: the routing policy's target metric. Affinity exists
  // to shrink lut_misses/programming_us_total relative to round-robin on
  // mixed-dataset traffic.
  std::uint64_t lut_hits = 0;
  std::uint64_t lut_misses = 0;
  std::uint64_t weight_hits = 0;
  std::uint64_t weight_misses = 0;
  double programming_us_total = 0.0;

  // Front-end transport (hw::HostLink round trips billed by the router).
  double transport_us_total = 0.0;
  double transport_us_mean = 0.0;
  double transport_energy_uj_total = 0.0;

  // Fleet analytic cost-cache ledger: sums of the per-node model caches
  // (one core::CostCache per node — caches are chip-local, like residency).
  // hit_rate = fleet hits / fleet lookups.
  std::uint64_t cost_cache_lookups = 0;
  std::uint64_t cost_cache_hits = 0;
  std::uint64_t cost_cache_misses = 0;
  std::uint64_t cost_cache_bypasses = 0;
  double cost_cache_hit_rate = 0.0;

  // Router view: how many submits each node received and how uneven that
  // is (max node share / mean share; 1.0 = perfectly even, 0 when empty).
  std::vector<std::uint64_t> routed_per_node;
  double routing_imbalance = 0.0;

  std::vector<ServerStats> per_node;
};

class Cluster {
 public:
  /// Stands up `opts.num_nodes` full node instances (model + scheduler +
  /// server each). `policy` overrides opts.policy when non-null — the
  /// pluggable-routing hook.
  Cluster(const core::StarConfig& cfg, const nn::BertConfig& bert,
          ClusterOptions opts, std::unique_ptr<RoutingPolicy> policy = nullptr);
  ~Cluster();  ///< shutdown(): every admitted future resolves first

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Route one request and submit it to its node. Same future semantics as
  /// StarServer::submit: admission failures travel through the future. The
  /// router stamps the transport bill into the request before submission;
  /// RequestStats.node records where it landed.
  [[nodiscard]] std::future<EncoderResponse> submit(EncoderRequest req);
  [[nodiscard]] std::future<AttentionResponse> submit(AttentionRequest req);
  [[nodiscard]] std::future<AnalyticResponse> submit(AnalyticRequest req);

  /// Block until every node has drained (no pending work anywhere).
  void drain();
  /// Stop admitting on every node and join their batchers. Idempotent.
  void shutdown();

  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const StarServer& node(std::size_t i) const;
  [[nodiscard]] const core::BatchEncoderSim& node_model(std::size_t i) const;
  [[nodiscard]] const ClusterOptions& options() const { return opts_; }
  /// Submits routed to each node so far (index == node id).
  [[nodiscard]] std::vector<std::uint64_t> routed_per_node() const;

 private:
  struct Node {
    std::unique_ptr<core::BatchEncoderSim> model;
    std::unique_ptr<sim::BatchScheduler> sched;
    std::unique_ptr<StarServer> server;
  };

  struct RouteDecision {
    std::size_t node = 0;
    double transport_us = 0.0;
  };
  /// Snapshot the fleet, pick a node, and bill the round-trip transport of
  /// `payload_bytes` down + `response_bytes` back across opts_.link — all
  /// under route_mu_, so stateful policies, the routed_ counters and the
  /// link-energy ledger stay consistent. `dataset` drives the lut_resident
  /// flags of the snapshots.
  [[nodiscard]] RouteDecision route_and_bill(workload::Dataset dataset,
                                             std::uint64_t payload_bytes,
                                             std::uint64_t response_bytes);

  ClusterOptions opts_;
  std::vector<Node> nodes_;
  std::unique_ptr<RoutingPolicy> policy_;
  mutable std::mutex route_mu_;
  std::vector<NodeSnapshot> snapshots_;  ///< route_and_bill's reused buffer
  std::vector<std::uint64_t> routed_;
  double transport_energy_uj_ = 0.0;  ///< fleet link energy (router-billed)
};

}  // namespace star::serve
