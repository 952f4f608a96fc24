// Workload configuration, served-phase records and the entry points the
// benchmark binary composes (see main.cpp for the run sequence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_encoder.hpp"
#include "harness.hpp"
#include "nn/bert.hpp"

namespace starbench {

/// The constants that differ between workloads (starbench/workloads.json,
/// every one required on the command line) plus the per-run arguments.
/// Constants shared by every workload are fixed in workloads.cpp; the
/// model, batching and dataset mix follow from the mode.
struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;

  std::string mode;         ///< "closed" (StarServer) | "open" (Cluster)
  std::string lengths;      ///< length histogram: cola | cnews | mixed
  int workers = 0;          ///< BatchScheduler threads (per node when open)
  int setup_reps = 0;       ///< set-ups per run; setup_s is their median
  int in_flight = 0;        ///< closed loop: requests kept outstanding
  int warmup_requests = 0;  ///< closed loop: max-length warm-up requests
  int nodes = 0;            ///< open loop: Cluster nodes
  double rate = 0.0;        ///< open loop: offered requests per second

  [[nodiscard]] bool closed() const { return mode == "closed"; }
};

/// Chained encoder layers of every functional request and model.
inline constexpr std::int64_t kLayers = 2;
/// Stream positions behind the sim_* figures and the exact counts.
inline constexpr std::size_t kSimRequests = 65536;
/// Traced run: time budget of each single-threaded layer replay.
inline constexpr double kReplaySeconds = 2.0;

[[nodiscard]] star::workload::LengthHistogram histogram_for(const std::string& name);
/// Closed loops serve tiny BERT, the open loop BERT-base geometry.
[[nodiscard]] star::nn::BertConfig bert_for(const Config& cfg);
/// Closed loops send kDefault; the open loop cycles CNEWS/MRPC/CoLA.
[[nodiscard]] std::vector<star::workload::Dataset> datasets_for(const Config& cfg);

/// One completed (or failed) request as the client observed it.
struct Completion {
  std::uint64_t index = 0;
  double send_s = 0.0;     ///< submit() call after the phase start
  double latency_s = 0.0;  ///< submit() call -> observed ready
  double late_s = 0.0;     ///< open loop: actual send - scheduled send
  double submit_s = 0.0;   ///< duration of the submit() call
  double queue_wait_s = 0.0;
  double service_s = 0.0;
  double programming_us = 0.0;
  std::uint64_t digest = 0;
  std::int32_t seq_len = 0;
  std::int32_t padded_len = 0;
  std::uint32_t lut_misses = 0;
  bool ok = false;  ///< false: the future resolved with an exception
};

/// Counters of the serving layer over one phase (deltas).
struct ServeCounters {
  std::uint64_t batches = 0;
  std::uint64_t cost_lookups = 0;
  std::uint64_t cost_hits = 0;
  std::vector<std::uint64_t> routed_per_node;
};

/// One measured served phase.
struct PhaseResult {
  std::vector<Completion> done;  ///< every attempted request, in harvest order
  Clock::time_point t0{};        ///< phase start
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;           ///< phase start -> last observed completion
  double program_cpu_s = 0.0;    ///< CpuMeter::program_cpu_s over the phase
  double client_cpu_s = 0.0;
  ServeCounters serve;
};

/// End-to-end figures of one whole phase: completions per wall second,
/// program CPU per completion and nearest-rank latency percentiles over
/// every completion (p50 and p90 are metrics; p99 is reported).
struct EndToEnd {
  double throughput_rps = 0.0;
  Percentile p50, p90, p99;  ///< latency in seconds
  double cpu_us_per_req = 0.0;
  std::size_t completed = 0;
};
[[nodiscard]] EndToEnd end_to_end(const PhaseResult& r);

/// A name/value/unit triple of the benchmark's output.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured.
struct RunReport {
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< futures that resolved with an exception
  std::uint64_t mismatches = 0;  ///< responses that differ from their reference
  /// Responses the check could not compare, when there were more than
  /// warm-up can leave (cold analytic responses); otherwise 0.
  std::uint64_t unverified = 0;
};

/// Runs the configured workload end to end: set-up, served phase, output
/// check, and in a traced run the per-layer replays.
[[nodiscard]] RunReport run_workload(const Config& cfg);

/// Traced run only: replays the workload's requests through each module's
/// public entry points, recording spans into `trace`, and appends the
/// per-layer metrics of the functional and analytic layers and the
/// tracing overhead.
void replay_layers(const star::core::BatchEncoderSim& functional,
                   const star::core::BatchEncoderSim& analytic,
                   const RequestStream& stream, Trace& trace,
                   std::vector<Metric>& out);

}  // namespace starbench
