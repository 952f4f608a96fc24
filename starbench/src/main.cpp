// starbench: one run of one workload of the repository benchmark.
//
// Sequence: set up the served system setup-reps times (setup_s is the
// median), serve the workload for --seconds, stop the server, check every
// response bit for bit against a directly computed reference, and print
// the metrics (a traced run then replays the workload's requests through
// each layer). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// The exit code is non-zero when any request failed or mismatched.
// starbench/run.py builds this binary and passes the per-run arguments and
// the workload's constants from starbench/workloads.json; every flag but
// --trace-path is required (the parser's placeholder defaults are never
// used).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/argparse.hpp"

int main(int argc, char** argv) {
  using starbench::Config;
  star::util::ArgParser args("starbench",
                             "One run of one workload of the repository benchmark.");
  args.add_string("workload", "", "workload name (for the report)");
  args.add_string("seed", "", "workload seed (unsigned 64-bit)");
  args.add_int("seconds", 1, "length of the measured phase", 1, 600);
  args.add_int("trace", 0, "1 = traced run: per-layer metrics and a trace file", 0, 1);
  args.add_string("trace-path", "", "where the traced run writes its Chrome trace");
  args.add_string("mode", "closed", "closed (StarServer) or open (Cluster)", {"closed", "open"});
  args.add_string("lengths", "cola", "length histogram", {"cola", "cnews", "mixed"});
  args.add_int("workers", 1, "worker threads (per node when open)", 1, 64);
  args.add_int("setup-reps", 1, "set-ups per run (setup_s is their median)", 1, 100);
  args.add_int("in-flight", 1, "closed loop: outstanding requests", 1, 4096);
  args.add_int("warmup-requests", 0, "closed loop: max-length warm-up requests", 0, 1 << 20);
  args.add_int("nodes", 1, "open loop: cluster nodes", 1, 64);
  args.add_int("rate", 1, "open loop: offered requests per second", 1, 100000000);
  args.parse(argc, argv);

  std::vector<std::string> required{"workload", "seed",       "seconds", "trace",
                                    "mode",     "lengths",    "workers", "setup-reps"};
  if (args.get_string("mode") == "closed") {
    required.insert(required.end(), {"in-flight", "warmup-requests"});
  } else {
    required.insert(required.end(), {"nodes", "rate"});
  }
  for (const std::string& name : required) {
    if (!args.provided(name)) {
      std::fprintf(stderr, "starbench: --%s is required\n%s", name.c_str(),
                   args.usage().c_str());
      return 2;
    }
  }

  Config cfg;
  cfg.workload = args.get_string("workload");
  char* end = nullptr;
  cfg.seed = std::strtoull(args.get_string("seed").c_str(), &end, 0);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "--seed: not an unsigned integer\n");
    return 2;
  }
  cfg.seconds = static_cast<double>(args.get_int("seconds"));
  cfg.trace = args.get_int("trace") == 1;
  cfg.trace_path = args.get_string("trace-path");
  cfg.mode = args.get_string("mode");
  cfg.lengths = args.get_string("lengths");
  cfg.workers = static_cast<int>(args.get_int("workers"));
  cfg.setup_reps = static_cast<int>(args.get_int("setup-reps"));
  cfg.in_flight = static_cast<int>(args.get_int("in-flight"));
  cfg.warmup_requests = static_cast<int>(args.get_int("warmup-requests"));
  cfg.nodes = static_cast<int>(args.get_int("nodes"));
  cfg.rate = static_cast<double>(args.get_int("rate"));

  starbench::RunReport rep;
  try {
    rep = starbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "starbench: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "starbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  const std::uint64_t failed = rep.failed + rep.mismatches + rep.unverified;
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
