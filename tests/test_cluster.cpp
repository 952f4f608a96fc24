// serve::Cluster: the residency-aware multi-chip router suite.
//
// The load-bearing property is inherited from every other serving layer:
// routing is SCHEDULING/ACCOUNTING-ONLY. A response payload is bit-identical
// to a solo closed-batch run of the same (input, run_seed) under EVERY
// routing policy x node count x thread count, with fault-injection streams
// riding along. On top of that: the fleet conservation laws (cluster totals
// equal the sum of per-node totals; routed counts equal what the nodes
// actually saw; workload::split_by_node agrees with live routing), the
// affinity-vs-round-robin residency claim (affinity provably pays fewer
// cold LUT programming misses on mixed-dataset traffic), single-node
// delegation (a 1-node cluster IS a StarServer plus a zero-cost hop), the
// hw::HostLink transport bill, and the documented fleet-percentile merge
// (p99 over the CONCATENATED reservoirs — never an average of per-node
// p99s). The multi-node soak at the bottom is the TSan target for the
// router's locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "hw/interconnect.hpp"
#include "serve/cluster.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/status.hpp"
#include "workload/arrival_trace.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::tiny();

/// Reference model for solo runs (identical construction parameters to the
/// ones ClusterOptions defaults hand every node).
const core::BatchEncoderSim& reference_model() {
  static const core::BatchEncoderSim model(tiny_cfg(), kBert);
  return model;
}

nn::Tensor input_of_len(std::size_t seq_len, std::uint64_t seed) {
  return workload::embedding_batch(
      1, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed)[0];
}

nn::Tensor solo_reference(const nn::Tensor& input, std::uint64_t run_seed) {
  // The serving seed rule: a solo run is batch index 0 of run_seed.
  return reference_model().run_encoder_one(
      input, workload::sequence_seed(run_seed, 0));
}

serve::ClusterOptions cluster_opts(std::size_t nodes, int threads,
                                   serve::RoutePolicyKind policy) {
  serve::ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.threads_per_node = threads;
  opts.policy = policy;
  opts.server.batcher.max_batch = 4;
  opts.server.batcher.max_wait_ticks = 1;
  return opts;
}

constexpr serve::RoutePolicyKind kAllPolicies[] = {
    serve::RoutePolicyKind::kRoundRobin,
    serve::RoutePolicyKind::kLeastLoaded,
    serve::RoutePolicyKind::kAffinity,
};

// ---------- policy plumbing ----------

TEST(RoutePolicy, ToStringParseRoundTrip) {
  for (const auto kind : kAllPolicies) {
    const auto parsed = serve::parse_route_policy(serve::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << serve::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(serve::parse_route_policy("round-robin"),
            serve::RoutePolicyKind::kRoundRobin);
  EXPECT_FALSE(serve::parse_route_policy("random").has_value());
  EXPECT_FALSE(serve::parse_route_policy("").has_value());
}

std::vector<serve::NodeSnapshot> snapshots(
    std::vector<std::size_t> depths, std::vector<bool> resident = {}) {
  std::vector<serve::NodeSnapshot> out(depths.size());
  for (std::size_t i = 0; i < depths.size(); ++i) {
    out[i].node = i;
    out[i].queue_depth = depths[i];
    out[i].lut_resident = i < resident.size() && resident[i];
  }
  return out;
}

TEST(RoutePolicy, RoundRobinCyclesRegardlessOfState) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kRoundRobin);
  const auto nodes = snapshots({100, 0, 50});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(p->route(nodes), i % 3);
  }
}

TEST(RoutePolicy, LeastLoadedPicksShallowestLowestIndexTie) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kLeastLoaded);
  EXPECT_EQ(p->route(snapshots({5, 2, 9, 2})), 1u);  // tie 1 vs 3 -> lowest
  EXPECT_EQ(p->route(snapshots({0, 0, 0})), 0u);
  EXPECT_EQ(p->route(snapshots({3})), 0u);
}

TEST(RoutePolicy, AffinityPrefersResidentUntilImbalanceEscapes) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kAffinity, 4);
  // A resident node wins over a shallower non-resident one...
  EXPECT_EQ(p->route(snapshots({0, 3}, {false, true})), 1u);
  // ...the shallowest resident node wins among resident nodes...
  EXPECT_EQ(p->route(snapshots({9, 3, 5}, {true, true, true})), 1u);
  // ...no resident node anywhere falls back to least-loaded...
  EXPECT_EQ(p->route(snapshots({7, 2, 8}, {false, false, false})), 1u);
  // ...and a resident node deeper than min + max_imbalance is abandoned.
  EXPECT_EQ(p->route(snapshots({0, 5}, {false, true})), 0u);
  EXPECT_EQ(p->route(snapshots({0, 4}, {false, true})), 1u);  // exactly at the edge
}

// ---------- hw::HostLink transport arithmetic ----------

TEST(HostLink, DefaultConstructedIsFree) {
  const hw::HostLink free_link;
  EXPECT_TRUE(free_link.is_free());
  EXPECT_DOUBLE_EQ(free_link.latency(1 << 20).as_us(), 0.0);
  EXPECT_DOUBLE_EQ(free_link.energy(1 << 20).as_uJ(), 0.0);
}

TEST(HostLink, LatencyIsPerTransferPlusBandwidthTerm) {
  const hw::HostLink link(Time::us(2.0), 16e9, Energy::pJ(10.0));
  EXPECT_FALSE(link.is_free());
  EXPECT_DOUBLE_EQ(link.latency(0).as_us(), 2.0);
  // 16 KB at 16 GB/s = 1 us on the wire, plus the fixed 2 us hop.
  EXPECT_NEAR(link.latency(16384).as_us(), 2.0 + 16384.0 / 16e9 * 1e6, 1e-12);
  EXPECT_NEAR(link.energy(1000).as_uJ(), 1000 * 10e-6, 1e-12);
  // A bandwidth-only link is NOT free: bytes still cost time.
  EXPECT_FALSE(hw::HostLink(Time{}, 1e9, Energy{}).is_free());
  EXPECT_TRUE(hw::HostLink::host_default().latency(4096).as_us() > 0.0);
}

// ---------- determinism contract ----------

TEST(Cluster, PayloadBitIdenticalAcrossPolicyNodeThreadMatrix) {
  // The headline invariant: policy x nodes x threads never touches the
  // payload, with a fault stream riding along. Every cell must match the
  // solo closed-batch reference bit-for-bit and every poisoned future must
  // carry its own InvalidArgument without corrupting batchmates.
  static const std::size_t kLens[] = {4, 16, 33, 8, 64, 12};
  constexpr std::size_t kN = sizeof(kLens) / sizeof(kLens[0]);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < kN; ++i) {
    expected.push_back(solo_reference(input_of_len(kLens[i], 0xC1 + i), 0x40 + i));
  }
  for (const auto policy : kAllPolicies) {
    for (const std::size_t nodes : {1u, 2u, 4u}) {
      for (const int threads : {1, 4}) {
        serve::Cluster cluster(tiny_cfg(), kBert,
                               cluster_opts(nodes, threads, policy));
        std::vector<std::future<serve::EncoderResponse>> good;
        std::vector<std::future<serve::EncoderResponse>> bad;
        for (std::size_t i = 0; i < kN; ++i) {
          good.push_back(cluster.submit(
              serve::EncoderRequest{input_of_len(kLens[i], 0xC1 + i), 0x40 + i}));
          serve::EncoderRequest poison{input_of_len(kLens[i], 0xB0 + i),
                                       0x40 + i};
          poison.num_layers = 99;  // > stack_depth: compute throws
          bad.push_back(cluster.submit(std::move(poison)));
        }
        for (std::size_t i = 0; i < kN; ++i) {
          const auto resp = good[i].get();
          EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected[i]))
              << "policy=" << serve::to_string(policy) << " nodes=" << nodes
              << " threads=" << threads << " request " << i;
          EXPECT_LT(resp.stats.node, nodes);
          EXPECT_THROW(bad[i].get(), InvalidArgument);
        }
        cluster.shutdown();
        const auto cs = cluster.stats();
        EXPECT_EQ(cs.completed, kN);
        EXPECT_EQ(cs.failed, kN);
      }
    }
  }
}

TEST(Cluster, SingleNodeClusterDelegatesBitIdenticallyToPlainServer) {
  // A 1-node cluster is a StarServer plus a free hop: identical payloads,
  // identical ledgers, identical (trivially merged) percentiles.
  static const std::size_t kLens[] = {10, 24, 7, 48};
  constexpr std::size_t kN = sizeof(kLens) / sizeof(kLens[0]);

  sim::BatchScheduler sched(2);
  serve::ServerOptions sopts;
  sopts.batcher.max_batch = 4;
  sopts.batcher.max_wait_ticks = 1;
  serve::StarServer plain(reference_model(), sched, sopts);
  auto opts = cluster_opts(1, 2, serve::RoutePolicyKind::kRoundRobin);
  serve::Cluster cluster(tiny_cfg(), kBert, opts);

  for (std::size_t i = 0; i < kN; ++i) {
    const auto input = input_of_len(kLens[i], 0xDE + i);
    auto from_plain =
        plain.submit(serve::EncoderRequest{input, 0x600 + i}).get();
    auto from_cluster =
        cluster.submit(serve::EncoderRequest{input, 0x600 + i}).get();
    EXPECT_TRUE(
        nn::Tensor::bit_identical(from_cluster.output, from_plain.output))
        << "request " << i;
    EXPECT_EQ(from_cluster.stats.node, 0u);
    EXPECT_DOUBLE_EQ(from_cluster.stats.transport_us, 0.0);  // free link
  }
  plain.shutdown();
  cluster.shutdown();
  const auto ps = plain.stats();
  const auto cs = cluster.stats();
  EXPECT_EQ(cs.completed, ps.completed);
  EXPECT_EQ(cs.effective_tokens, ps.effective_tokens);
  ASSERT_EQ(cs.per_node.size(), 1u);
  // Trivial merge: the fleet percentile of one node IS that node's.
  EXPECT_DOUBLE_EQ(cs.queue_wait_p99_s, cs.per_node[0].queue_wait_p99_s);
  EXPECT_DOUBLE_EQ(cs.service_p99_s, cs.per_node[0].service_p99_s);
}

// ---------- conservation laws ----------

TEST(Cluster, FleetLedgerEqualsSumOfNodesAndRoutingIsAccounted) {
  constexpr std::size_t kN = 40;
  auto cluster_options =
      cluster_opts(4, 1, serve::RoutePolicyKind::kRoundRobin);
  serve::Cluster cluster(tiny_cfg(), kBert, cluster_options);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  std::vector<std::size_t> node_of;
  for (std::size_t i = 0; i < kN; ++i) {
    futs.push_back(
        cluster.submit(serve::AnalyticRequest{8 + std::int64_t(i % 32)}));
  }
  for (auto& f : futs) {
    node_of.push_back(f.get().stats.node);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();

  // Fleet totals are exactly the per-node sums.
  std::uint64_t submitted = 0, admitted = 0, completed = 0, batches = 0,
                wakeups = 0, effective = 0;
  for (const auto& n : cs.per_node) {
    submitted += n.submitted;
    admitted += n.admitted;
    completed += n.completed;
    batches += n.batches;
    wakeups += n.batcher_wakeups;
    effective += n.effective_tokens;
  }
  EXPECT_EQ(cs.submitted, kN);
  EXPECT_EQ(cs.submitted, submitted);
  EXPECT_EQ(cs.admitted, admitted);
  EXPECT_EQ(cs.completed, completed);
  EXPECT_EQ(cs.completed, kN);
  EXPECT_EQ(cs.batches, batches);
  EXPECT_EQ(cs.batcher_wakeups, wakeups);
  EXPECT_EQ(cs.effective_tokens, effective);

  // The router's counters agree with where responses said they ran, and
  // with what each node's own ledger admitted.
  const auto routed = cluster.routed_per_node();
  ASSERT_EQ(routed.size(), 4u);
  std::vector<std::uint64_t> seen(4, 0);
  for (const auto n : node_of) {
    ASSERT_LT(n, 4u);
    ++seen[n];
  }
  std::uint64_t routed_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routed[i], seen[i]) << "node " << i;
    EXPECT_EQ(routed[i], cs.per_node[i].submitted) << "node " << i;
    routed_total += routed[i];
  }
  EXPECT_EQ(routed_total, kN);
  // Round-robin over a multiple of the node count is perfectly even.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routed[i], kN / 4);
  }
  EXPECT_DOUBLE_EQ(cs.routing_imbalance, 1.0);

  // workload::split_by_node on the live routing decisions reproduces the
  // per-node trace sizes — the offline fan-out agrees with the router.
  const auto trace = workload::ArrivalTrace::generate(
      kN, workload::ArrivalProcess::kPoisson, 1.0, 0x77);
  const auto per_node = workload::split_by_node(trace, node_of, 4);
  ASSERT_EQ(per_node.size(), 4u);
  std::size_t split_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(per_node[i].size(), routed[i]);
    split_total += per_node[i].size();
    for (std::size_t j = 1; j < per_node[i].arrival_ticks.size(); ++j) {
      EXPECT_GT(per_node[i].arrival_ticks[j], per_node[i].arrival_ticks[j - 1]);
    }
  }
  EXPECT_EQ(split_total, trace.size());
}

TEST(SplitByNode, RejectsMalformedInputs) {
  const auto trace = workload::ArrivalTrace::generate(
      4, workload::ArrivalProcess::kPoisson, 1.0, 0x1);
  EXPECT_THROW(workload::split_by_node(trace, {0, 1}, 2), InvalidArgument);
  EXPECT_THROW(workload::split_by_node(trace, {0, 1, 2, 3}, 3),
               InvalidArgument);
  EXPECT_THROW(workload::split_by_node(trace, {0, 0, 0, 0}, 0),
               InvalidArgument);
  const auto ok = workload::split_by_node(trace, {1, 1, 0, 1}, 3);
  ASSERT_EQ(ok.size(), 3u);
  EXPECT_EQ(ok[0].size(), 1u);
  EXPECT_EQ(ok[1].size(), 3u);
  EXPECT_TRUE(ok[2].empty());
}

// ---------- affinity vs round-robin residency ----------

/// Sequential mixed-dataset trace (submit-and-get so routing always sees
/// settled residency state); returns the fleet's cold LUT miss count.
std::uint64_t lut_misses_under(serve::RoutePolicyKind policy,
                               std::size_t requests) {
  serve::Cluster cluster(tiny_cfg(), kBert, cluster_opts(4, 1, policy));
  const workload::Dataset mix[] = {workload::Dataset::kCnews,
                                   workload::Dataset::kMrpc,
                                   workload::Dataset::kCola};
  for (std::size_t i = 0; i < requests; ++i) {
    serve::EncoderRequest req{input_of_len(12, 0xAB + i), 0x300 + i};
    req.dataset = mix[i % 3];
    const auto resp = cluster.submit(std::move(req)).get();
    EXPECT_LT(resp.stats.node, 4u);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_EQ(cs.completed, requests);
  return cs.lut_misses;
}

TEST(Cluster, AffinityPaysFewerColdMissesThanRoundRobinOnMixedDatasets) {
  // Default-format models alias MRPC's image (kMrpcFormat is the default
  // softmax format), so a node pays exactly one cold programming miss per
  // FOREIGN dataset it ever touches: CNEWS and CoLA. Round-robin smears
  // both datasets across all 4 nodes (8 cold misses); affinity pins each
  // dataset to the node that already programmed it (2 cold misses, fleet
  // total), and MRPC stays free everywhere.
  const std::uint64_t rr =
      lut_misses_under(serve::RoutePolicyKind::kRoundRobin, 24);
  const std::uint64_t affinity =
      lut_misses_under(serve::RoutePolicyKind::kAffinity, 24);
  EXPECT_EQ(rr, 8u);
  EXPECT_EQ(affinity, 2u);
  EXPECT_LT(affinity, rr);
}

// ---------- transport accounting ----------

TEST(Cluster, HostLinkBillsRoundTripIntoStatsPayloadUnchanged) {
  const auto input = input_of_len(16, 0xF00D);
  const nn::Tensor expected = solo_reference(input, 0x11);

  auto opts = cluster_opts(2, 1, serve::RoutePolicyKind::kRoundRobin);
  opts.link = hw::HostLink::host_default();
  serve::Cluster cluster(tiny_cfg(), kBert, opts);
  const auto resp = cluster.submit(serve::EncoderRequest{input, 0x11}).get();

  // The bill is the modelled round trip: the input down, the same-shape
  // output back, each paying per-transfer latency plus the bandwidth term.
  const auto bytes = static_cast<std::uint64_t>(input.rows()) *
                     static_cast<std::uint64_t>(input.cols()) * sizeof(double);
  const double expected_us =
      2.0 * hw::HostLink::host_default().latency(bytes).as_us();
  EXPECT_NEAR(resp.stats.transport_us, expected_us, 1e-9);
  EXPECT_GT(resp.stats.transport_us, 0.0);
  // Transport is accounting-only: the payload is untouched.
  EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected));

  auto analytic = cluster.submit(serve::AnalyticRequest{32}).get();
  EXPECT_GT(analytic.stats.transport_us, 0.0);
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_NEAR(cs.transport_us_total,
              resp.stats.transport_us + analytic.stats.transport_us, 1e-9);
  EXPECT_NEAR(cs.transport_us_mean, cs.transport_us_total / 2.0, 1e-9);
  EXPECT_GT(cs.transport_energy_uj_total, 0.0);
  // The per-node ServerStats carry the same total (transport is stamped on
  // the request, so it lands in whichever node served it).
  double per_node_us = 0.0;
  for (const auto& n : cs.per_node) {
    per_node_us += n.transport_us_total;
  }
  EXPECT_NEAR(per_node_us, cs.transport_us_total, 1e-9);
}

TEST(Cluster, FreeLinkBillsNothing) {
  serve::Cluster cluster(
      tiny_cfg(), kBert, cluster_opts(4, 1, serve::RoutePolicyKind::kLeastLoaded));
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(cluster.submit(serve::AnalyticRequest{16}));
  }
  for (auto& f : futs) {
    EXPECT_DOUBLE_EQ(f.get().stats.transport_us, 0.0);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_DOUBLE_EQ(cs.transport_us_total, 0.0);
  EXPECT_DOUBLE_EQ(cs.transport_energy_uj_total, 0.0);
}

// ---------- fleet percentile merge ----------

TEST(Cluster, FleetP99IsPercentileOfConcatenatedReservoirs) {
  // The documented merge rule, checked against an independent recompute:
  // concatenate the per-node reservoirs and take serve::percentile over
  // the union. With loads this small the reservoirs are exact (no
  // replacement has kicked in), so the equality is bit-for-bit.
  constexpr std::size_t kN = 60;
  serve::Cluster cluster(
      tiny_cfg(), kBert, cluster_opts(4, 2, serve::RoutePolicyKind::kRoundRobin));
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (std::size_t i = 0; i < kN; ++i) {
    futs.push_back(
        cluster.submit(serve::AnalyticRequest{4 + std::int64_t(i % 60)}));
  }
  for (auto& f : futs) {
    f.get();
  }
  cluster.shutdown();

  std::vector<double> wait_union, service_union;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const auto acc = cluster.node(i).stats_accumulator();
    const auto& qw = acc.queue_wait_samples();
    const auto& sv = acc.service_samples();
    wait_union.insert(wait_union.end(), qw.begin(), qw.end());
    service_union.insert(service_union.end(), sv.begin(), sv.end());
  }
  EXPECT_EQ(wait_union.size(), kN);
  const auto cs = cluster.stats();
  EXPECT_DOUBLE_EQ(cs.queue_wait_p99_s, serve::percentile(wait_union, 0.99));
  EXPECT_DOUBLE_EQ(cs.service_p99_s, serve::percentile(service_union, 0.99));
  // The union p99 is NOT in general any node's p99 average — pin that the
  // merge at least dominates the per-node means' implied floor.
  EXPECT_GE(cs.queue_wait_p99_s, 0.0);
  EXPECT_GE(cs.service_p99_s, cs.service_mean_s * 0.0);
}

// ---------- bounded multi-threaded soak (TSan target) ----------

TEST(Cluster, BoundedSoakManySubmittersAcrossPolicies) {
  // Four submitter threads hammer a 3-node cluster while a monitor polls
  // the merged stats concurrently: the router's lock, the per-node stats
  // locks and the reservoir copies all get exercised under TSan. Every
  // future must resolve and the fleet ledger must balance.
  for (const auto policy : kAllPolicies) {
    auto opts = cluster_opts(3, 2, policy);
    opts.server.max_queue = 16;
    opts.link = hw::HostLink::host_default();
    serve::Cluster cluster(tiny_cfg(), kBert, opts);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 32;
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<bool> monitoring{true};
    std::thread monitor([&] {
      while (monitoring.load()) {
        const auto cs = cluster.stats();
        EXPECT_LE(cs.completed + cs.failed, cs.admitted);
        EXPECT_LE(cs.effective_tokens, cs.padded_tokens);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        const workload::Dataset mix[] = {workload::Dataset::kDefault,
                                         workload::Dataset::kCnews,
                                         workload::Dataset::kCola};
        for (std::size_t i = 0; i < kPerThread; ++i) {
          serve::EncoderRequest req{input_of_len(8 + (i % 3) * 8, 0xE0 + i),
                                    0x1000 + t * kPerThread + i};
          req.dataset = mix[(t + i) % 3];
          auto fut = cluster.submit(std::move(req));
          fut.get();
          resolved.fetch_add(1);
        }
      });
    }
    for (auto& th : submitters) {
      th.join();
    }
    monitoring.store(false);
    monitor.join();
    cluster.shutdown();
    EXPECT_EQ(resolved.load(), kThreads * kPerThread);
    const auto cs = cluster.stats();
    EXPECT_EQ(cs.completed, kThreads * kPerThread);
    EXPECT_EQ(cs.failed, 0u);
    std::uint64_t routed_total = 0;
    for (const auto r : cluster.routed_per_node()) {
      routed_total += r;
    }
    EXPECT_EQ(routed_total, kThreads * kPerThread);
  }
}

}  // namespace
}  // namespace star
