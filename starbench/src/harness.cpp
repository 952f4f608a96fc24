#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>

#include "util/rng.hpp"

namespace starbench {

// ------------------------------------------------------------ percentiles

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * n) - 1.0, 0.0, n - 1.0));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  out.value = samples[rank];
  out.beyond = samples.size() - 1 - rank;
  out.supported = out.beyond >= 10;
  return out;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value;
}

// --------------------------------------------------------- CPU accounting

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void CpuMeter::start() {
  charged_s_ = 0.0;
  t0_ = thread_cpu_s();
  p0_ = process_cpu_s();
}

void CpuMeter::stop() {
  const double p1 = process_cpu_s();
  const double t1 = thread_cpu_s();
  client_cpu_s_ = (t1 - t0_) - charged_s_;
  program_cpu_s_ = (p1 - p0_) - client_cpu_s_;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --------------------------------------------------------- request stream

namespace {

// splitmix64 finaliser: the stream's per-position hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

RequestStream::RequestStream(std::uint64_t seed,
                             star::workload::LengthHistogram hist,
                             std::vector<star::workload::Dataset> datasets)
    : seed_(mix64(seed)), hist_(std::move(hist)), datasets_(std::move(datasets)) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1);
  hist_.validate();
  if (datasets_.empty()) {
    datasets_.push_back(star::workload::Dataset::kDefault);
  }
  dataset_offset_ = mix64(seed_ ^ 0xDA7A5E7ULL) % datasets_.size();

  // Largest-remainder apportionment of kLengthBlock slots to the bins.
  double wsum = 0.0;
  for (const auto& b : hist_.bins) {
    wsum += b.weight;
  }
  std::vector<std::uint64_t> count(hist_.bins.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::uint64_t given = 0;
  for (std::size_t k = 0; k < hist_.bins.size(); ++k) {
    const double exact = hist_.bins[k].weight / wsum * static_cast<double>(kLengthBlock);
    count[k] = static_cast<std::uint64_t>(std::floor(exact));
    given += count[k];
    remainder.emplace_back(-(exact - std::floor(exact)), k);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t r = 0; given < kLengthBlock; ++r, ++given) {
    ++count[remainder[r % remainder.size()].second];
  }
  for (std::size_t k = 0; k < hist_.bins.size(); ++k) {
    block_.insert(block_.end(), count[k], hist_.bins[k].len);
  }
}

std::int64_t RequestStream::length_at(std::uint64_t i) const {
  // Block b is block_ shuffled by its own seeded stream; consecutive calls
  // mostly hit the same block, so the last one is cached per thread.
  struct Cached {
    std::uint64_t stream = 0, block = 0;
    std::vector<std::int64_t> lens;
  };
  thread_local Cached cache;
  const std::uint64_t b = i / kLengthBlock;
  if (cache.stream != id_ || cache.block != b || cache.lens.empty()) {
    cache.stream = id_;
    cache.block = b;
    cache.lens = block_;
    star::Rng rng(mix64(seed_ ^ mix64(b ^ 0xB10C'0000'0000ULL)));
    for (std::size_t k = cache.lens.size() - 1; k > 0; --k) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k)));
      std::swap(cache.lens[k], cache.lens[j]);
    }
  }
  return cache.lens[i % kLengthBlock];
}

RequestSpec RequestStream::at(std::uint64_t i) const {
  star::Rng rng(mix64(seed_ ^ mix64(i)));
  RequestSpec spec;
  spec.index = i;
  spec.seq_len = length_at(i);
  spec.run_seed = rng();
  spec.embed_seed = rng();
  spec.dataset = datasets_[(dataset_offset_ + i) % datasets_.size()];
  return spec;
}

star::nn::Tensor RequestStream::input(const RequestSpec& spec, std::int64_t d_model) {
  star::Rng rng(spec.embed_seed);
  return star::nn::Tensor::randn(static_cast<std::size_t>(spec.seq_len),
                                 static_cast<std::size_t>(d_model), rng);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds) {
  star::Rng rng(mix64(seed ^ 0xA4417A1ULL));
  std::vector<double> sends;
  sends.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.05) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= seconds) {
      break;
    }
    sends.push_back(t);
  }
  return sends;
}

// ----------------------------------------------------------------- digests

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
}

template <typename T>
void fnv(std::uint64_t& h, T v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  fnv_bytes(h, bytes, sizeof(T));
}

}  // namespace

std::uint64_t digest(const star::nn::Tensor& t) {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(t.rows()));
  fnv(h, static_cast<std::uint64_t>(t.cols()));
  const auto flat = t.flat();
  fnv_bytes(h, flat.data(), flat.size() * sizeof(double));
  return h;
}

std::uint64_t digest(const star::core::AttentionRunResult& r) {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, r.report.engine_name.data(), r.report.engine_name.size());
  fnv(h, r.report.total_ops);
  fnv(h, r.report.latency.as_s());
  fnv(h, r.report.energy.as_J());
  fnv(h, r.report.avg_power.as_W());
  fnv(h, r.latency.as_s());
  fnv(h, r.energy.as_J());
  fnv(h, r.power.as_W());
  fnv(h, r.softmax_block_latency.as_s());
  fnv(h, r.softmax_energy.as_J());
  fnv(h, r.write_energy.as_J());
  fnv(h, r.matmul_tiles);
  fnv(h, r.softmax_engines);
  fnv(h, r.pipeline_speedup);
  fnv(h, r.num_shards);
  fnv(h, r.interconnect_latency.as_s());
  fnv(h, r.interconnect_energy.as_J());
  return h;
}

// ------------------------------------------------------------------ spans

Trace::Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint32_t Trace::add(const char* name, Clock::time_point start,
                         Clock::time_point end, std::uint32_t parent,
                         std::int64_t request) {
  if (!enabled_) {
    return 0;
  }
  const std::uint32_t id = open(name, start, parent, request);
  close(id, end);
  return id;
}

std::uint32_t Trace::open(const char* name, Clock::time_point start,
                          std::uint32_t parent, std::int64_t request) {
  if (!enabled_) {
    return 0;
  }
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.start_us = 1e6 * seconds_between(epoch_, start);
  s.end_us = s.start_us;
  spans_.push_back(s);
  return s.id;
}

void Trace::close(std::uint32_t id, Clock::time_point end) {
  if (!enabled_ || id == 0) {
    return;
  }
  spans_[id - 1].end_us = 1e6 * seconds_between(epoch_, end);
}

std::map<std::string, Trace::Totals> Trace::totals() const {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) {
      continue;
    }
    const Span& p = spans_[s.parent - 1];
    const double a = std::max(s.start_us, p.start_us);
    const double b = std::min(s.end_us, p.end_us);
    if (b > a) {
      kids[s.parent - 1].emplace_back(a, b);
    }
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    auto& iv = kids[s.id - 1];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += std::max(0.0, cur_b - cur_a);
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += std::max(0.0, cur_b - cur_a);
    Totals& t = out[s.name];
    const double dur = s.end_us - s.start_us;
    t.count += 1;
    t.total_us += dur;
    t.self_us += dur - covered;
  }
  return out;
}

bool Trace::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Lane per root span: the lowest lane whose previous root has ended.
  // Children inherit their root's lane (spans are recorded parent-first).
  std::vector<std::uint32_t> lane(spans_.size(), 0);
  std::vector<std::size_t> roots;
  for (const Span& s : spans_) {
    if (s.parent == 0) {
      roots.push_back(s.id - 1);
    }
  }
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].start_us < spans_[b].start_us;
  });
  using Free = std::pair<double, std::uint32_t>;  // (lane end, lane)
  std::priority_queue<Free, std::vector<Free>, std::greater<>> busy;
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> idle;
  std::uint32_t lanes = 0;
  for (const std::size_t r : roots) {
    while (!busy.empty() && busy.top().first <= spans_[r].start_us) {
      idle.push(busy.top().second);
      busy.pop();
    }
    std::uint32_t l = 0;
    if (idle.empty()) {
      l = lanes++;
    } else {
      l = idle.top();
      idle.pop();
    }
    lane[r] = l;
    busy.emplace(spans_[r].end_us, l);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) {
      lane[i] = lane[spans_[i].parent - 1];
    }
  }

  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, lane[i], s.start_us,
                 s.end_us - s.start_us, s.id, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace starbench
