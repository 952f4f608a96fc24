// Self-test of the benchmark's own helpers (starbench/src/harness.*):
// the percentile function and its sample count, seeded request streams,
// CPU accounting that excludes the client thread, span self times and
// output digests. Checks stay on in every build type. Run it with
//   python3 starbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);
  }
  return v;
}

void test_percentile() {
  const auto p99 = starbench::percentile(one_to(1000), 0.99);
  check(p99.value == 990.0, "p99 of 1..1000 is 990 (nearest rank)");
  check(p99.samples == 1000, "p99 reports its sample count");
  check(p99.beyond == 10 && p99.supported, "p99 of 1000 samples has 10 beyond it");
  const auto short_p99 = starbench::percentile(one_to(999), 0.99);
  check(short_p99.beyond == 9 && !short_p99.supported, "p99 of 999 samples is unsupported");
  check(starbench::percentile(one_to(4), 0.5).value == 2.0, "p50 of 1..4 is 2");
  check(starbench::percentile(one_to(1), 0.99).value == 1.0, "p99 of one sample");
  const auto empty = starbench::percentile({}, 0.5);
  check(empty.samples == 0 && empty.value == 0.0, "empty sample");
  check(starbench::median({3.0, 1.0, 2.0}) == 2.0, "median");

}

void test_streams() {
  using star::workload::Dataset;
  const auto hist = star::workload::length_histogram_for(Dataset::kDefault);
  const std::vector<Dataset> cycle{Dataset::kCnews, Dataset::kMrpc, Dataset::kCola};
  const starbench::RequestStream a(7, hist, cycle), b(7, hist, cycle), c(8, hist, cycle);
  bool same = true;
  int differ = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto x = a.at(i), y = b.at(i), z = c.at(i);
    same = same && x.seq_len == y.seq_len && x.run_seed == y.run_seed &&
           x.embed_seed == y.embed_seed && x.dataset == y.dataset;
    differ += (x.run_seed != z.run_seed) ? 1 : 0;
  }
  check(same, "same seed gives the same request sequence");
  check(differ == 1000, "a different seed gives different requests");
  check(starbench::digest(starbench::RequestStream::input(a.at(3), 32)) ==
            starbench::digest(starbench::RequestStream::input(b.at(3), 32)),
        "same seed gives the same input tensor");
  check(a.at(5).seq_len == a.at(5).seq_len && a.at(5).run_seed == a.at(5).run_seed,
        "a position regenerates identically");

  // Stratified lengths: each block of kLengthBlock requests holds the
  // CNEWS bins in proportion (5/20/15/35/25 %), in a seed-dependent order.
  const auto cnews = star::workload::length_histogram_for(Dataset::kCnews);
  const starbench::RequestStream s7(7, cnews, {}), s8(8, cnews, {});
  constexpr auto kBlock = starbench::RequestStream::kLengthBlock;
  bool proportional = true;
  int order_differs = 0;
  for (std::uint64_t blk = 0; blk < 5; ++blk) {
    std::map<std::int64_t, int> count;
    for (std::uint64_t i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
      ++count[s7.at(i).seq_len];
      order_differs += s7.at(i).seq_len != s8.at(i).seq_len ? 1 : 0;
    }
    proportional = proportional && count[64] == 5 && count[128] == 20 && count[192] == 15 &&
                   count[256] == 35 && count[384] == 25;
  }
  check(proportional, "every length block holds the histogram in proportion");
  check(order_differs > 0, "a different seed orders the lengths differently");

  const auto s1 = starbench::poisson_schedule(7, 1000.0, 1.0);
  const auto s2 = starbench::poisson_schedule(7, 1000.0, 1.0);
  const auto s3 = starbench::poisson_schedule(8, 1000.0, 1.0);
  check(s1 == s2, "same seed gives the same arrival schedule");
  check(s1 != s3, "a different seed gives a different arrival schedule");
  check(s1.size() > 900 && s1.size() < 1100, "schedule holds ~rate x seconds arrivals");
  bool sorted = true;
  for (std::size_t i = 1; i < s1.size(); ++i) {
    sorted = sorted && s1[i] > s1[i - 1];
  }
  check(sorted && s1.back() < 1.0, "schedule is increasing and inside the phase");
}

void spin_cpu(double seconds) {
  const double t0 = starbench::thread_cpu_s();
  volatile double sink = 0.0;
  while (starbench::thread_cpu_s() - t0 < seconds) {
    sink = sink + 1.0;
  }
}

void test_cpu_meter() {
  // A worker burns 0.3 s of CPU. The metering (client) thread burns 0.2 s
  // of its own and 0.1 s inside a "call into the program" that it charges:
  // the program's CPU is the worker's plus the charged call.
  starbench::CpuMeter meter;
  meter.start();
  std::thread worker([] { spin_cpu(0.3); });
  spin_cpu(0.2);
  const double call0 = starbench::thread_cpu_s();
  spin_cpu(0.1);
  meter.charge(starbench::thread_cpu_s() - call0);
  worker.join();
  meter.stop();
  std::printf("cpu meter: program %.3f s (expect ~0.4), client %.3f s (expect ~0.2)\n",
              meter.program_cpu_s(), meter.client_cpu_s());
  check(std::abs(meter.program_cpu_s() - 0.4) < 0.05,
        "program CPU excludes the client thread but includes its charged calls");
  check(std::abs(meter.client_cpu_s() - 0.2) < 0.05,
        "client CPU is the metering thread's own, outside the charged calls");
}

void test_trace() {
  starbench::Trace trace(true);
  const auto t0 = starbench::Clock::now();
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const std::uint32_t root = trace.add("root", at(0), at(100));
  trace.add("child", at(10), at(30), root);
  trace.add("child", at(20), at(50), root);   // overlaps the first child
  trace.add("child", at(90), at(120), root);  // clipped to the parent
  const auto totals = trace.totals();
  const auto& r = totals.at("root");
  check(r.count == 1 && std::abs(r.total_us - 100.0) < 1e-6, "root span total");
  check(std::abs(r.self_us - 50.0) < 1e-6, "self time = total - union of clipped children");
  check(totals.at("child").count == 3, "child span count");
  starbench::Trace off(false);
  check(off.add("x", at(0), at(1)) == 0 && off.spans().empty(), "disabled trace records nothing");
}

void test_digest() {
  star::nn::Tensor a(2, 3, 1.0), b(2, 3, 1.0), c(3, 2, 1.0);
  check(starbench::digest(a) == starbench::digest(b), "equal tensors share a digest");
  b.at(1, 2) = std::nextafter(1.0, 2.0);
  check(starbench::digest(a) != starbench::digest(b), "a one-ulp change moves the digest");
  check(starbench::digest(a) != starbench::digest(c), "the shape is part of the digest");
}

}  // namespace

int main() {
  test_percentile();
  test_streams();
  test_cpu_meter();
  test_trace();
  test_digest();
  if (failures > 0) {
    std::printf("starbench selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("starbench selftest: all checks passed\n");
  return 0;
}
