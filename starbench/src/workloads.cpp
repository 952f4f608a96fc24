// Set-up, pre-roll, measured phase and the output check of the three
// workloads.
//
// Closed loop (StarServer): one client thread keeps `in_flight` requests
// outstanding. Open loop (Cluster): one generator thread sends on a
// precomputed Poisson schedule. In both, latency runs from the moment the
// client calls submit() (so a submit() that blocks on admission counts) to
// the moment it sees the future ready. How late the open-loop generator
// sent against its schedule is reported apart, as gen.late_p99_us: on a
// shared host it is mostly the generator's own core being taken away,
// which says nothing about the program (measured on the 4-vCPU KVM guest
// the constants were chosen on, latency from the schedule read a p99 of
// 1-22 ms per second of a run where latency from submit() read
// 0.5-1.5 ms). The open-loop generator spins between sends (they are
// ~33 us apart) and polls its outstanding futures. The closed-loop client
// waits on its oldest outstanding request for at most kPollPeriod, then
// collects every ready request: in interleaved runs on that guest a
// spinning client slowed the serving thread by up to 12%, and with two
// batches in flight a late wake-up of the client delays no batch.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "hw/interconnect.hpp"
#include "serve/cluster.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "workload/trace_gen.hpp"

namespace starbench {

using star::workload::Dataset;

star::workload::LengthHistogram histogram_for(const std::string& name) {
  if (name == "cola") {
    return star::workload::length_histogram_for(Dataset::kCola);
  }
  if (name == "cnews") {
    return star::workload::length_histogram_for(Dataset::kCnews);
  }
  if (name == "mixed") {
    return star::workload::length_histogram_for(Dataset::kDefault);
  }
  throw std::invalid_argument("unknown length histogram '" + name + "'");
}

star::nn::BertConfig bert_for(const Config& cfg) {
  return cfg.closed() ? star::nn::BertConfig::tiny() : star::nn::BertConfig::base();
}

std::vector<Dataset> datasets_for(const Config& cfg) {
  if (cfg.closed()) {
    return {Dataset::kDefault};
  }
  return {Dataset::kCnews, Dataset::kMrpc, Dataset::kCola};
}

EndToEnd end_to_end(const PhaseResult& r) {
  EndToEnd e;
  std::vector<double> lat;
  lat.reserve(r.done.size());
  for (const Completion& c : r.done) {
    if (c.ok) {
      lat.push_back(c.latency_s);
    }
  }
  e.completed = lat.size();
  e.throughput_rps = r.wall_s > 0.0 ? static_cast<double>(lat.size()) / r.wall_s : 0.0;
  e.cpu_us_per_req =
      lat.empty() ? 0.0 : 1e6 * r.program_cpu_s / static_cast<double>(lat.size());
  e.p50 = percentile(lat, 0.50);
  e.p90 = percentile(lat, 0.90);
  e.p99 = percentile(lat, 0.99);
  return e;
}

namespace {

// Constants shared by every workload.
// Weights of every served and reference model (the library default).
constexpr std::uint64_t kWeightSeed = 0xB127;
// Server options of every StarServer (and of every Cluster node): the
// library's default batcher with a blocking admission queue.
constexpr std::size_t kMaxBatch = 8;
constexpr std::uint32_t kMaxWaitTicks = 4;
constexpr std::chrono::microseconds kTick{100};
constexpr std::size_t kMaxQueue = 64;
// Open loop: warm-up traffic at the offered rate before timing, so cost
// caches and LUT residency settle.
constexpr double kOpenWarmupSeconds = 0.3;
// Pre-roll before the measured phase, not timed: the workload's own
// traffic on the set-up instance. On the 4-vCPU VM the constants were
// chosen on, a run that starts on an idle host serves its first ~2.5 s
// with a p99 of 1.5 ms (steady: 0.47 ms on analytic_open, 0.93 ms on
// cola_closed); 3 s of pre-roll removed that ramp.
constexpr double kPrerollSeconds = 3.0;
// Threads of the output check (capped by the hardware).
constexpr int kVerifyThreads = 4;
// Salts separating the warm-up and pre-roll streams and schedules from
// the measured ones.
constexpr std::uint64_t kWarmSalt = 0x3A97'0F1EULL;
constexpr std::uint64_t kPrerollSalt = 0x9E'7011ULL;

// One submit() in this many has its client-thread CPU read (send_request).
constexpr std::uint64_t kChargeEvery = 16;

// Longest wait of the closed-loop client before it sweeps its outstanding
// futures again.
constexpr std::chrono::microseconds kPollPeriod{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

star::serve::ServerOptions server_options(const Config& cfg) {
  star::serve::ServerOptions o;
  o.max_queue = kMaxQueue;
  o.admission = star::serve::AdmissionPolicy::kBlock;
  o.batcher.max_batch = kMaxBatch;
  o.batcher.max_wait_ticks = kMaxWaitTicks;
  o.batcher.tick = kTick;
  if (!cfg.closed()) {
    // The open loop batches by length, on the histogram's bins.
    std::vector<std::int64_t> edges;
    for (const auto& bin : histogram_for(cfg.lengths).bins) {
      edges.push_back(bin.len);
    }
    o.batcher.bucketing = star::serve::LengthBucketing::bucketed(edges);
  }
  return o;
}

ServeCounters minus(ServeCounters a, const ServeCounters& b) {
  a.batches -= b.batches;
  a.cost_lookups -= b.cost_lookups;
  a.cost_hits -= b.cost_hits;
  for (std::size_t i = 0; i < a.routed_per_node.size() && i < b.routed_per_node.size(); ++i) {
    a.routed_per_node[i] -= b.routed_per_node[i];
  }
  return a;
}

// --------------------------------------------------------- served systems

/// cola_closed / cnews_closed: functional encoder requests on one
/// StarServer over a BatchScheduler pool.
class FunctionalSystem {
 public:
  using Request = star::serve::EncoderRequest;
  using Response = star::serve::EncoderResponse;

  explicit FunctionalSystem(const Config& cfg)
      : cfg_(cfg),
        model_(star::core::StarConfig{}, bert_for(cfg), kWeightSeed, kLayers),
        sched_(cfg.workers),
        server_(model_, sched_, server_options(cfg)) {}

  [[nodiscard]] Request make(const RequestSpec& spec) const {
    Request req;
    req.input = RequestStream::input(spec, model_.bert().d_model);
    req.run_seed = spec.run_seed;
    req.num_layers = kLayers;
    req.dataset = spec.dataset;
    return req;
  }
  [[nodiscard]] std::future<Response> submit(Request req) {
    return server_.submit(std::move(req));
  }
  [[nodiscard]] static std::uint64_t digest_of(const Response& r) {
    return digest(r.output);
  }
  [[nodiscard]] ServeCounters counters() const {
    const auto s = server_.stats();
    const auto c = model_.cost_cache().stats();
    return {s.batches, c.lookups, c.hits, {s.submitted}};
  }
  void shutdown() { server_.shutdown(); }
  [[nodiscard]] const star::core::BatchEncoderSim& model() const { return model_; }
  [[nodiscard]] int total_workers() const { return cfg_.workers; }

 private:
  const Config& cfg_;
  star::core::BatchEncoderSim model_;
  star::sim::BatchScheduler sched_;
  star::serve::StarServer server_;
};

/// analytic_open: analytic requests through a multi-node Cluster.
class AnalyticSystem {
 public:
  using Request = star::serve::AnalyticRequest;
  using Response = star::serve::AnalyticResponse;

  explicit AnalyticSystem(const Config& cfg)
      : cfg_(cfg), cluster_(star::core::StarConfig{}, bert_for(cfg), options(cfg)) {}

  [[nodiscard]] Request make(const RequestSpec& spec) const {
    Request req;
    req.seq_len = spec.seq_len;
    req.dataset = spec.dataset;
    return req;
  }
  [[nodiscard]] std::future<Response> submit(Request req) {
    return cluster_.submit(req);
  }
  [[nodiscard]] static std::uint64_t digest_of(const Response& r) {
    return digest(r.result);
  }
  [[nodiscard]] ServeCounters counters() const {
    const auto s = cluster_.stats();
    return {s.batches, s.cost_cache_lookups, s.cost_cache_hits, s.routed_per_node};
  }
  void shutdown() { cluster_.shutdown(); }
  [[nodiscard]] const star::core::BatchEncoderSim& model() const {
    return cluster_.node_model(0);
  }
  [[nodiscard]] int total_workers() const { return cfg_.workers * cfg_.nodes; }

 private:
  static star::serve::ClusterOptions options(const Config& cfg) {
    star::serve::ClusterOptions o;
    o.num_nodes = static_cast<std::size_t>(cfg.nodes);
    o.threads_per_node = cfg.workers;
    o.policy = star::serve::RoutePolicyKind::kAffinity;
    o.server = server_options(cfg);
    o.link = star::hw::HostLink::host_default();
    o.weight_seed = kWeightSeed;
    o.stack_depth = 1;
    return o;
  }

  const Config& cfg_;
  star::serve::Cluster cluster_;
};

// ------------------------------------------------------------ phase loops

template <typename Sys>
struct Slot {
  std::future<typename Sys::Response> fut;
  std::uint64_t index = 0;
  Clock::time_point due{};
  Clock::time_point sent{};
  double submit_s = 0.0;
};

/// Generate request `index` and submit it. The client thread's CPU inside
/// submit() is charged to the program: only generation, polling and
/// waiting stay the client's own. A thread-CPU read is a system call
/// (~0.35 us on a 4-vCPU KVM guest), and two per send slowed a 90k req/s
/// generator enough to put it behind schedule on a loaded host. So every kChargeEvery-th
/// stream position is bracketed, and its CPU counts kChargeEvery times.
template <typename Sys>
void send_request(Sys& sys, const RequestStream& stream, std::uint64_t index,
                  Clock::time_point due, Slot<Sys>& slot, CpuMeter& cpu) {
  const RequestSpec spec = stream.at(index);
  typename Sys::Request req = sys.make(spec);
  slot.index = index;
  slot.due = due;
  const bool sampled = index % kChargeEvery == 0;
  const double cpu0 = sampled ? thread_cpu_s() : 0.0;
  slot.sent = Clock::now();
  if (slot.due == Clock::time_point{}) {
    slot.due = slot.sent;  // closed loop: sent on schedule by definition
  }
  slot.fut = sys.submit(std::move(req));
  slot.submit_s = seconds_between(slot.sent, Clock::now());
  if (sampled) {
    cpu.charge(static_cast<double>(kChargeEvery) * (thread_cpu_s() - cpu0));
  }
}

template <typename Sys>
void harvest(Slot<Sys>& slot, Clock::time_point ready, PhaseResult& r) {
  Completion c;
  c.index = slot.index;
  c.send_s = seconds_between(r.t0, slot.sent);
  c.latency_s = seconds_between(slot.sent, ready);
  c.late_s = seconds_between(slot.due, slot.sent);
  c.submit_s = slot.submit_s;
  try {
    const typename Sys::Response resp = slot.fut.get();
    const auto& st = resp.stats;
    c.ok = true;
    c.digest = Sys::digest_of(resp);
    c.queue_wait_s = st.queue_wait_s;
    c.service_s = st.service_s;
    c.programming_us = st.programming_us;
    c.seq_len = static_cast<std::int32_t>(st.seq_len);
    c.padded_len = static_cast<std::int32_t>(st.padded_len);
    c.lut_misses = static_cast<std::uint32_t>(st.lut_misses);
  } catch (const std::exception&) {
    ++r.failed;
  }
  r.done.push_back(c);
}

/// Closed loop: keep `in_flight` requests (stream positions 0, 1, ...)
/// outstanding until `seconds` have passed, then drain. wall_s ends at the
/// last observed completion.
template <typename Sys>
PhaseResult closed_phase(Sys& sys, const RequestStream& stream, int in_flight,
                         double seconds) {
  std::uint64_t next = 0;
  PhaseResult r;
  std::vector<Slot<Sys>> slots(static_cast<std::size_t>(in_flight));
  // Reserved, not touched: pages become resident only as completions are
  // recorded, so peak_rss_mb does not jump at a capacity doubling.
  r.done.reserve(static_cast<std::size_t>(seconds * 50000.0) + slots.size());
  const ServeCounters before = sys.counters();
  CpuMeter cpu;
  cpu.start();
  const auto t0 = Clock::now();
  r.t0 = t0;
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (auto& s : slots) {
    send_request(sys, stream, next++, Clock::time_point{}, s, cpu);
    ++r.attempted;
  }
  std::size_t live = slots.size();
  auto last = t0;
  while (live > 0) {
    Slot<Sys>* oldest = nullptr;
    for (auto& s : slots) {
      if (s.fut.valid() && (oldest == nullptr || s.index < oldest->index)) {
        oldest = &s;
      }
    }
    (void)oldest->fut.wait_for(kPollPeriod);
    for (auto& s : slots) {
      if (!s.fut.valid() ||
          s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      const auto ready = Clock::now();
      harvest(s, ready, r);
      last = std::max(last, ready);
      if (ready < deadline) {
        send_request(sys, stream, next++, Clock::time_point{}, s, cpu);
        ++r.attempted;
      } else {
        --live;
      }
    }
  }
  cpu.stop();
  r.wall_s = seconds_between(t0, last);
  r.program_cpu_s = cpu.program_cpu_s();
  r.client_cpu_s = cpu.client_cpu_s();
  r.serve = minus(sys.counters(), before);
  return r;
}

/// Open loop: send stream position i at t0 + sends[i], then drain.
template <typename Sys>
PhaseResult open_phase(Sys& sys, const RequestStream& stream,
                       const std::vector<double>& sends) {
  PhaseResult r;
  r.done.reserve(sends.size());
  std::vector<Slot<Sys>> out;
  out.reserve(4096);
  const ServeCounters before = sys.counters();
  CpuMeter cpu;
  cpu.start();
  const auto t0 = Clock::now();
  r.t0 = t0;
  auto last = t0;
  std::size_t i = 0;
  while (i < sends.size() || !out.empty()) {
    // Send what is due (bounded, so completions keep being observed even
    // when the generator runs behind).
    for (int burst = 0; burst < 16 && i < sends.size(); ++burst) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sends[i]));
      if (Clock::now() < due) {
        break;
      }
      out.emplace_back();
      send_request(sys, stream, i, due, out.back(), cpu);
      ++r.attempted;
      ++i;
    }
    bool any = false;
    for (std::size_t k = 0; k < out.size();) {
      if (out[k].fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const auto ready = Clock::now();
        harvest(out[k], ready, r);
        last = std::max(last, ready);
        out[k] = std::move(out.back());
        out.pop_back();
        any = true;
      } else {
        ++k;
      }
    }
    if (!any) {
      cpu_relax();
    }
  }
  cpu.stop();
  r.wall_s = seconds_between(t0, last);
  r.program_cpu_s = cpu.program_cpu_s();
  r.client_cpu_s = cpu.client_cpu_s();
  r.serve = minus(sys.counters(), before);
  return r;
}

// ------------------------------------------------------------ output check

/// Functional: every completed response against a direct run_encoder_one
/// on a freshly built model of the same config, in parallel.
std::uint64_t check_functional(const Config& cfg, const RequestStream& stream,
                               const std::vector<Completion>& done) {
  const star::core::BatchEncoderSim ref(star::core::StarConfig{}, bert_for(cfg),
                                        kWeightSeed, kLayers);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::size_t> cursor{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= done.size()) {
        return;
      }
      if (!done[k].ok) {
        continue;
      }
      const RequestSpec spec = stream.at(done[k].index);
      const star::nn::Tensor out = ref.run_encoder_one(
          RequestStream::input(spec, ref.bert().d_model),
          star::workload::sequence_seed(spec.run_seed, 0), kLayers);
      if (digest(out) != done[k].digest) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> pool;
  const int threads = std::min<int>(
      kVerifyThreads, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(work);
  }
  for (auto& t : pool) {
    t.join();
  }
  return mismatches.load();
}

/// Warm analytic reference results of one model config, memoized per
/// (seq_len, dataset): the second call of each key on a fresh model (the
/// first may pay the dataset's LUT programming).
class AnalyticReference {
 public:
  explicit AnalyticReference(const Config& cfg)
      : model_(star::core::StarConfig{}, bert_for(cfg), kWeightSeed, 1) {}

  const star::core::AttentionRunResult& warm(std::int64_t seq_len, Dataset d) {
    const auto key = std::make_pair(seq_len, static_cast<int>(d));
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      (void)model_.run_analytic_one(seq_len, d);
      it = memo_.emplace(key, model_.run_analytic_one(seq_len, d)).first;
    }
    return it->second;
  }

 private:
  star::core::BatchEncoderSim model_;
  std::map<std::pair<std::int64_t, int>, star::core::AttentionRunResult> memo_;
};

/// Analytic: every warm response (no LUT miss, no programming charge)
/// against the reference; returns mismatches, counts the cold ones.
std::uint64_t check_analytic(AnalyticReference& ref, const RequestStream& stream,
                             const std::vector<Completion>& done,
                             std::uint64_t& cold) {
  std::uint64_t mismatches = 0;
  cold = 0;
  for (const Completion& c : done) {
    if (!c.ok) {
      continue;
    }
    if (c.lut_misses != 0 || c.programming_us != 0.0) {
      ++cold;
      continue;
    }
    const RequestSpec spec = stream.at(c.index);
    if (digest(ref.warm(spec.seq_len, spec.dataset)) != c.digest) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The modelled (sim_*) figures: warm analytic cost of the first
/// kSimRequests requests of the measured stream on the served model's
/// geometry. A pure function of (seed, model) — identical on any host.
void sim_metrics(AnalyticReference& ref, const RequestStream& stream,
                 std::vector<Metric>& out) {
  double lat_us = 0.0, ops = 0.0, energy_j = 0.0;
  for (std::size_t i = 0; i < kSimRequests; ++i) {
    const RequestSpec spec = stream.at(i);
    const auto& r = ref.warm(spec.seq_len, spec.dataset);
    lat_us += r.latency.as_us();
    ops += r.report.total_ops;
    energy_j += r.energy.as_J();
  }
  out.push_back({"sim_latency_us", lat_us / static_cast<double>(kSimRequests), "us"});
  out.push_back({"sim_gops_per_w", ops / energy_j / 1e9, "GOPs/s/W"});
}

// ----------------------------------------------------------- set-up + run

template <typename Sys>
void warm_up(Sys& sys, const Config& cfg) {
  const std::vector<Dataset> datasets = datasets_for(cfg);
  if (cfg.closed()) {
    // The longest request of the histogram on every worker, so every
    // pooled workspace reaches its high-water mark before timing.
    const auto hist = histogram_for(cfg.lengths);
    const RequestStream warm(cfg.seed ^ kWarmSalt,
                             star::workload::LengthHistogram::fixed(hist.max_len()),
                             datasets);
    std::vector<std::future<typename Sys::Response>> futs;
    for (int i = 0; i < cfg.warmup_requests; ++i) {
      futs.push_back(sys.submit(sys.make(warm.at(static_cast<std::uint64_t>(i)))));
    }
    for (auto& f : futs) {
      (void)f.get();
    }
  } else {
    // Warm-up traffic of the same shape, so caches and residency settle.
    const RequestStream warm(cfg.seed ^ kWarmSalt, histogram_for(cfg.lengths), datasets);
    (void)open_phase(sys, warm,
                     poisson_schedule(cfg.seed ^ kWarmSalt, cfg.rate, kOpenWarmupSeconds));
  }
}

struct Served {
  PhaseResult phase;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  ///< set-up and serving, before the output check
};

template <typename Sys>
Served serve_workload(const Config& cfg, const RequestStream& stream,
                      std::unique_ptr<Sys>& sys, Trace& trace) {
  Served s;
  std::vector<double> sends;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    sys.reset();  // tear the previous instance down outside the timed region
    const auto t0 = Clock::now();
    sys = std::make_unique<Sys>(cfg);
    if (!cfg.closed()) {
      sends = poisson_schedule(cfg.seed, cfg.rate, cfg.seconds);
    }
    warm_up(*sys, cfg);
    s.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Pre-roll on a stream of its own, then the measured phase.
  const RequestStream preroll(cfg.seed ^ kPrerollSalt, histogram_for(cfg.lengths),
                              datasets_for(cfg));
  if (cfg.closed()) {
    (void)closed_phase(*sys, preroll, cfg.in_flight, kPrerollSeconds);
    s.phase = closed_phase(*sys, stream, cfg.in_flight, cfg.seconds);
  } else {
    (void)open_phase(*sys, preroll,
                     poisson_schedule(cfg.seed ^ kPrerollSalt, cfg.rate, kPrerollSeconds));
    s.phase = open_phase(*sys, stream, sends);
  }
  sys->shutdown();
  s.peak_rss_mb = peak_rss_mb();

  // Request spans: the send -> ready interval the client saw, with
  // submit(), queue wait and service children rebuilt from the response's
  // RequestStats, and the generator's lateness before it (bounded so the
  // trace stays small).
  constexpr std::size_t kTracedRequests = 2000;
  const auto at = [&](double offset_s) {
    return s.phase.t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offset_s));
  };
  for (std::size_t k = 0; trace.enabled() && k < s.phase.done.size() && k < kTracedRequests;
       ++k) {
    const Completion& c = s.phase.done[k];
    const auto req = static_cast<std::int64_t>(c.index);
    double t = c.send_s;
    if (c.late_s > 0.0) {
      trace.add("gen.late", at(t - c.late_s), at(t), 0, req);
    }
    const std::uint32_t root = trace.add("request", at(t), at(t + c.latency_s), 0, req);
    for (const auto& [name, dur] : {std::pair{"serve.submit", c.submit_s},
                                    std::pair{"serve.queue_wait", c.queue_wait_s},
                                    std::pair{"serve.service", c.service_s}}) {
      if (dur > 0.0) {
        trace.add(name, at(t), at(t + dur), root, req);
        t += dur;
      }
    }
  }
  return s;
}

void push_served_layers(const PhaseResult& r, int workers, std::vector<Metric>& out) {
  std::vector<double> submit, qwait, handoff, late;
  double service_sum = 0.0, seq_sum = 0.0, padded_sum = 0.0, programming = 0.0;
  std::uint64_t lut_misses = 0;
  for (const Completion& c : r.done) {
    if (!c.ok) {
      continue;
    }
    submit.push_back(c.submit_s);
    qwait.push_back(c.queue_wait_s);
    handoff.push_back(c.latency_s - c.queue_wait_s - c.service_s);
    late.push_back(c.late_s);
    service_sum += c.service_s;
    seq_sum += c.seq_len;
    padded_sum += c.padded_len;
    programming += c.programming_us;
    lut_misses += c.lut_misses;
  }
  const double n = std::max<double>(1.0, static_cast<double>(qwait.size()));
  out.push_back({"serve.submit_us", 1e6 * percentile(submit, 0.5).value, "us"});
  out.push_back({"serve.queue_wait_p50_us", 1e6 * percentile(qwait, 0.5).value, "us"});
  out.push_back({"serve.queue_wait_p99_us", 1e6 * percentile(qwait, 0.99).value, "us"});
  out.push_back({"serve.service_mean_us", 1e6 * service_sum / n, "us"});
  out.push_back({"serve.handoff_p99_us", 1e6 * percentile(handoff, 0.99).value, "us"});
  out.push_back({"serve.batch_size_mean",
                 r.serve.batches > 0 ? n / static_cast<double>(r.serve.batches) : 0.0,
                 "count"});
  out.push_back({"serve.worker_busy_share",
                 r.wall_s > 0.0 ? service_sum / (workers * r.wall_s) : 0.0, "ratio"});
  out.push_back({"serve.padding_waste",
                 padded_sum > 0.0 ? 1.0 - seq_sum / padded_sum : 0.0, "ratio"});
  double routed_max = 0.0, routed_sum = 0.0;
  for (const std::uint64_t v : r.serve.routed_per_node) {
    routed_max = std::max(routed_max, static_cast<double>(v));
    routed_sum += static_cast<double>(v);
  }
  const auto nodes = static_cast<double>(r.serve.routed_per_node.size());
  out.push_back({"serve.routing_imbalance",
                 routed_sum > 0.0 ? routed_max / (routed_sum / nodes) : 0.0, "ratio"});
  out.push_back({"core.cost_cache_hit_rate",
                 r.serve.cost_lookups > 0 ? static_cast<double>(r.serve.cost_hits) /
                                                static_cast<double>(r.serve.cost_lookups)
                                          : 0.0,
                 "ratio"});
  out.push_back({"core.lut_misses", static_cast<double>(lut_misses), "count"});
  out.push_back({"core.programming_us", programming, "us"});
  out.push_back({"gen.late_p99_us", 1e6 * percentile(late, 0.99).value, "us"});
}

void print_phase(const PhaseResult& r, const EndToEnd& e) {
  std::vector<double> lat;
  for (const Completion& c : r.done) {
    if (c.ok) {
      lat.push_back(c.latency_s);
    }
  }
  std::printf("latency quantiles (ms):");
  for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    std::printf(" p%g %.4f", 100.0 * q, 1e3 * percentile(lat, q).value);
  }
  std::printf("\n");
  std::printf("measured phase: %zu completed, %llu failed in %.3f s wall; %.1f req/s, "
              "program CPU %.2f us/req (client thread's own CPU %.3f s); latency p50 "
              "%.4f ms, p90 %.4f ms, p99 %.4f ms (n=%zu, %zu beyond the p99%s)\n",
              e.completed, static_cast<unsigned long long>(r.failed), r.wall_s,
              e.throughput_rps, e.cpu_us_per_req, r.client_cpu_s, 1e3 * e.p50.value,
              1e3 * e.p90.value, 1e3 * e.p99.value, e.p99.samples, e.p99.beyond,
              e.p99.supported ? "" : ", UNSUPPORTED: under 1000 samples");
}

template <typename Sys>
RunReport run_system(const Config& cfg) {
  RunReport rep;
  std::printf("workload %s, seed %llu, %.0f s measured%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? " (traced run)" : "");
  std::printf("constants: mode %s, lengths %s, %s BERT, %lld layers, max batch %zu, "
              "max wait %u x %lld us, queue %zu (block), setup reps %d, ",
              cfg.mode.c_str(), cfg.lengths.c_str(), cfg.closed() ? "tiny" : "base",
              static_cast<long long>(kLayers), kMaxBatch, kMaxWaitTicks,
              static_cast<long long>(kTick.count()), kMaxQueue, cfg.setup_reps);
  if (cfg.closed()) {
    std::printf("%d workers, %d in flight, warm-up %d requests\n", cfg.workers,
                cfg.in_flight, cfg.warmup_requests);
  } else {
    std::printf("%d nodes x %d workers, length-bucketed, %.0f req/s offered, "
                "warm-up %.1f s\n",
                cfg.nodes, cfg.workers, cfg.rate, kOpenWarmupSeconds);
  }
  std::printf("pre-roll: %.1f s of untimed traffic between set-up and the measured phase\n",
              kPrerollSeconds);
  const RequestStream stream(cfg.seed, histogram_for(cfg.lengths), datasets_for(cfg));
  Trace trace(cfg.trace);
  std::unique_ptr<Sys> sys;
  Served s = serve_workload(cfg, stream, sys, trace);
  const EndToEnd e = end_to_end(s.phase);
  print_phase(s.phase, e);

  // Output check, after the timed phase and with the server stopped.
  AnalyticReference analytic_ref(cfg);
  rep.attempted = s.phase.attempted;
  rep.failed = s.phase.failed;
  std::uint64_t cold = 0;
  if (cfg.closed()) {
    rep.mismatches = check_functional(cfg, stream, s.phase.done);
  } else {
    rep.mismatches = check_analytic(analytic_ref, stream, s.phase.done, cold);
    // Warm-up leaves at most one cold (LUT-programming) response per node
    // and (length, dataset) key; more means the check was emptied.
    const std::uint64_t allowed = histogram_for(cfg.lengths).bins.size() *
                                  datasets_for(cfg).size() *
                                  static_cast<std::uint64_t>(cfg.nodes);
    if (cold > allowed) {
      rep.unverified = cold;
    }
  }
  std::printf("output check: %llu responses checked bit for bit, %llu mismatches, "
              "%llu cold (programming-charged) analytic responses not compared%s\n",
              static_cast<unsigned long long>(rep.attempted - rep.failed - cold),
              static_cast<unsigned long long>(rep.mismatches),
              static_cast<unsigned long long>(cold),
              rep.unverified > 0 ? " (more than warm-up allows: counted as failed)" : "");
  const double failed_share =
      static_cast<double>(rep.failed + rep.mismatches + rep.unverified) /
      static_cast<double>(std::max<std::uint64_t>(1, rep.attempted));
  std::printf("failed_share %.6f ratio (failed %llu + mismatched %llu + unverified %llu "
              "of %llu attempted)\n",
              failed_share, static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.mismatches),
              static_cast<unsigned long long>(rep.unverified),
              static_cast<unsigned long long>(rep.attempted));

  if (!cfg.trace) {
    rep.metrics.push_back({"throughput_rps", e.throughput_rps, "req/s"});
    rep.metrics.push_back({"latency_p50_ms", 1e3 * e.p50.value, "ms"});
    rep.metrics.push_back({"latency_p90_ms", 1e3 * e.p90.value, "ms"});
    rep.metrics.push_back({"cpu_us_per_req", e.cpu_us_per_req, "us"});
    rep.metrics.push_back({"setup_s", median(s.setup_s), "s"});
    rep.metrics.push_back({"peak_rss_mb", s.peak_rss_mb, "MB"});
    sim_metrics(analytic_ref, stream, rep.metrics);
    std::printf("setup_s: median of %zu set-ups:", s.setup_s.size());
    for (const double v : s.setup_s) {
      std::printf(" %.4f", v);
    }
    std::printf(" s\n");
    return rep;
  }

  push_served_layers(s.phase, sys->total_workers(), rep.metrics);
  if (cfg.closed()) {
    replay_layers(sys->model(), sys->model(), stream, trace, rep.metrics);
  } else {
    // The open workload runs no functional kernels; its functional layers
    // are measured on the tiny functional model at the workload's lengths.
    const star::core::BatchEncoderSim functional(
        star::core::StarConfig{}, star::nn::BertConfig::tiny(), kWeightSeed, kLayers);
    replay_layers(functional, sys->model(), stream, trace, rep.metrics);
  }

  std::printf("\n%-26s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms",
              "mean_us");
  for (const auto& [name, t] : trace.totals()) {
    std::printf("%-26s %10llu %14.3f %14.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_us / 1e3,
                t.self_us / 1e3, t.total_us / static_cast<double>(t.count));
  }
  if (!cfg.trace_path.empty()) {
    if (!trace.write_chrome_json(cfg.trace_path)) {
      throw std::runtime_error("cannot write trace file " + cfg.trace_path);
    }
    std::printf("trace: %zu spans written to %s\n", trace.spans().size(),
                cfg.trace_path.c_str());
  }
  return rep;
}

}  // namespace

RunReport run_workload(const Config& cfg) {
  return cfg.closed() ? run_system<FunctionalSystem>(cfg) : run_system<AnalyticSystem>(cfg);
}

}  // namespace starbench
