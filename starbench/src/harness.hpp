// Helpers of the repository benchmark: seeded request streams, percentile
// and CPU accounting, output digests and the in-memory span recorder that
// the traced run writes out as Chrome trace-event JSON.
//
// Everything here is benchmark-side: spans are recorded around calls into
// the star library's public API, never inside it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "nn/tensor.hpp"
#include "workload/dataset_profile.hpp"

namespace starbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ percentiles

/// A nearest-rank percentile together with the sample it was taken from.
/// `beyond` counts the samples ranked above the reported one; a percentile
/// is `supported` when at least ten samples lie beyond it (p99 therefore
/// needs >= 1000 samples).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;
};

/// Nearest-rank percentile (the smallest sample with at least a share `p`
/// of the sample at or below it). `samples` is taken by value and
/// partially reordered. An empty sample gives value 0 and samples 0.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);

/// Median of the values (nearest-rank p50).
[[nodiscard]] double median(std::vector<double> values);

// --------------------------------------------------------- CPU accounting

/// CPU seconds consumed so far by the whole process / the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// CPU the program under test spent over an interval: process user+sys CPU
/// minus the CPU of the thread that calls start()/stop() (the benchmark's
/// own client or generator thread), plus the share of that thread's CPU
/// spent inside the program's calls (submit()), which the client reports
/// with charge(). Every call must come from that thread.
class CpuMeter {
 public:
  void start();
  /// Count `seconds` of the client thread's CPU (measured around a call
  /// into the program) as the program's.
  void charge(double seconds) { charged_s_ += seconds; }
  void stop();
  /// Process CPU minus the client thread's own CPU over [start, stop].
  [[nodiscard]] double program_cpu_s() const { return program_cpu_s_; }
  /// The client thread's CPU outside the charged calls.
  [[nodiscard]] double client_cpu_s() const { return client_cpu_s_; }

 private:
  double p0_ = 0.0, t0_ = 0.0, charged_s_ = 0.0;
  double program_cpu_s_ = 0.0, client_cpu_s_ = 0.0;
};

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb();

// --------------------------------------------------------- request stream

/// Everything that determines one generated request.
struct RequestSpec {
  std::uint64_t index = 0;
  std::int64_t seq_len = 0;
  std::uint64_t run_seed = 0;    ///< EncoderRequest::run_seed
  std::uint64_t embed_seed = 0;  ///< seed of the input embeddings
  star::workload::Dataset dataset = star::workload::Dataset::kDefault;
};

/// A counter-based request stream: request i is a pure function of
/// (seed, i), so a request can be regenerated anywhere (the verification
/// threads regenerate inputs instead of keeping them) and two streams with
/// the same seed are identical position by position.
///
/// Lengths are stratified: every block of kLengthBlock consecutive
/// requests holds the histogram's bins in proportion (largest-remainder
/// rounding), in a seeded random order. A run of a few thousand long
/// requests then sees the histogram's mix, not a seed-dependent sample of
/// it, which would move throughput and CPU per request between seeds.
class RequestStream {
 public:
  static constexpr std::uint64_t kLengthBlock = 100;

  /// `datasets` are cycled from a seed-chosen starting offset; pass a
  /// single kDefault entry for single-format traffic.
  RequestStream(std::uint64_t seed, star::workload::LengthHistogram hist,
                std::vector<star::workload::Dataset> datasets);

  [[nodiscard]] RequestSpec at(std::uint64_t i) const;
  /// seq_len x d_model embeddings, i.i.d. normal(0, 1), from spec.embed_seed.
  [[nodiscard]] static star::nn::Tensor input(const RequestSpec& spec,
                                              std::int64_t d_model);
  [[nodiscard]] const star::workload::LengthHistogram& histogram() const {
    return hist_;
  }

 private:
  [[nodiscard]] std::int64_t length_at(std::uint64_t i) const;

  std::uint64_t seed_;
  std::uint64_t id_;  ///< distinguishes streams in the per-thread block cache
  star::workload::LengthHistogram hist_;
  std::vector<std::int64_t> block_;  ///< one block's lengths, in bin order
  std::vector<star::workload::Dataset> datasets_;
  std::uint64_t dataset_offset_ = 0;
};

/// Send offsets (seconds from the phase start) of an open-loop Poisson
/// process at `rate_per_s`, covering [0, seconds). Deterministic in
/// (seed, rate_per_s, seconds).
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double seconds);

// ----------------------------------------------------------------- digests

/// FNV-1a over the shape and the bit pattern of every element.
[[nodiscard]] std::uint64_t digest(const star::nn::Tensor& t);
/// FNV-1a over every field of an analytic result (doubles by bit pattern).
[[nodiscard]] std::uint64_t digest(const star::core::AttentionRunResult& r);

// ------------------------------------------------------------------ spans

/// In-memory span recorder. Spans carry a name, [start, end] on the
/// steady clock, the id of the span that caused them (0 = root) and the
/// request they belong to. Nothing is recorded while disabled, so the
/// untraced run pays one branch per call site.
class Trace {
 public:
  struct Span {
    const char* name = "";  ///< a string literal (never owned)
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::int64_t request = -1;
    double start_us = 0.0;  ///< relative to the recorder's epoch
    double end_us = 0.0;
  };

  /// Aggregate of every span of one name.
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< total minus the time covered by child spans
  };

  explicit Trace(bool enabled = false);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Record a finished span; returns its id (0 when disabled).
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent = 0,
                    std::int64_t request = -1);
  /// Open a span whose end is filled in by close() (so children recorded
  /// in between can name it as their parent).
  std::uint32_t open(const char* name, Clock::time_point start,
                     std::uint32_t parent = 0, std::int64_t request = -1);
  void close(std::uint32_t id, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per-name totals with self time = duration minus the union of the
  /// span's children clipped to its own interval.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Chrome trace-event JSON ("X" events; overlapping root spans are
  /// spread over lanes so every lane nests properly).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace starbench
