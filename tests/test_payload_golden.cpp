// Cross-build payload goldens: the payload contract
// output = f(input, run_seed, num_layers) pinned as checked-in bits.
//
// Every case hashes the exact output bits (FNV-1a over the IEEE-754 bytes)
// of one functional computation and compares the hash with
// tests/golden/payload_hashes.csv. Unlike a same-binary comparison, this
// catches a kernel change that shifts rounding in every path at once, and
// any compiler, build type or flag (FMA contraction, fast-math) that
// perturbs a bit.
//
// Kinds:
//  * encoder — BatchEncoderSim::run_encoder_one_into over tiny BERT: an
//    L x d_model randn input through `num_layers` chained encoder layers
//    with the STAR crossbar softmax, engine seed sequence_seed(run_seed, 0).
//  * softmax — SoftmaxEngine::softmax_row_into directly: `num_layers`
//    consecutive L x L score blocks (rows of length L, wide enough to
//    clamp at the window floor) through ONE SoftmaxRunState, so the fault
//    stream spans the blocks as it spans an encoder stack.
//  * attention — BatchEncoderSim::run_attention_one (crossbar score and
//    context matmuls around the crossbar softmax): `num_layers` QKV
//    triples of d_k = 16 drawn one after another from the input stream,
//    triple l with engine seed sequence_seed(run_seed, l); the hash covers
//    each triple's output and then its probabilities. Lengths stop at 128:
//    the crossbar matmul model costs ~0.75 s per L = 256..384 case, and
//    the softmax kind already pins the long rows.
//
// Inputs come from star::Rng (Box-Muller over libm log/cos) and the weights
// likewise; the goldens therefore assume a glibc-class libm, as every CI
// cell has. On a mismatch the test prints the full recomputed table, which
// is also how the file was produced (from a tree with an empty table).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/bert.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fnv_doubles(std::uint64_t& h, std::span<const double> xs) {
  for (const double x : xs) {
    unsigned char bytes[sizeof x];
    std::memcpy(bytes, &x, sizeof x);
    for (const unsigned char b : bytes) {
      h = (h ^ b) * kFnvPrime;
    }
  }
}

constexpr int kSeqLens[] = {1, 2, 8, 17, 32, 64, 128, 256, 384};
constexpr int kAttentionSeqLens[] = {1, 2, 8, 17, 32, 64, 128};
constexpr int kLayers[] = {1, 2};
constexpr double kMissProbs[] = {0.0, 0.02};
constexpr std::uint64_t kRunSeeds[] = {1, 2, 3};

// (kind, seq_len, num_layers, miss_prob text, run_seed) -> hash
using Key = std::tuple<std::string, int, int, std::string, std::uint64_t>;

std::string miss_text(double miss) { return miss == 0.0 ? "0" : "0.02"; }

/// Input seed of one case: independent of the engine seed so the two
/// streams never alias.
std::uint64_t input_seed(std::uint64_t run_seed, int seq_len) {
  return run_seed * 1000003ULL + static_cast<std::uint64_t>(seq_len);
}

std::uint64_t encoder_hash(const core::BatchEncoderSim& sim, int seq_len, int layers,
                           std::uint64_t run_seed) {
  Rng rng(input_seed(run_seed, seq_len));
  const auto input = nn::Tensor::randn(static_cast<std::size_t>(seq_len),
                                       static_cast<std::size_t>(sim.bert().d_model), rng);
  nn::Tensor out;
  sim.run_encoder_one_into(input, workload::sequence_seed(run_seed, 0), out, layers);
  std::uint64_t h = kFnvOffset;
  fnv_doubles(h, out.flat());
  return h;
}

std::uint64_t softmax_hash(const core::SoftmaxEngine& engine, int seq_len, int layers,
                           std::uint64_t run_seed) {
  Rng rng(input_seed(run_seed, seq_len));
  core::SoftmaxRunState run(workload::sequence_seed(run_seed, 0));
  const auto n = static_cast<std::size_t>(seq_len);
  std::vector<double> row(n);
  std::vector<double> out(n);
  std::uint64_t h = kFnvOffset;
  for (int block = 0; block < layers; ++block) {
    for (std::size_t r = 0; r < n; ++r) {
      for (auto& v : row) {
        // MRPC window is +-32 at 0.125 resolution: sd 12 clamps some
        // scores at the floor and leaves many rows with deep magnitudes.
        v = rng.normal(0.0, 12.0);
      }
      engine.softmax_row_into(row, run, out);
      fnv_doubles(h, out);
    }
  }
  return h;
}

std::uint64_t attention_hash(const core::BatchEncoderSim& sim, int seq_len, int layers,
                             std::uint64_t run_seed) {
  Rng rng(input_seed(run_seed, seq_len));
  std::uint64_t h = kFnvOffset;
  for (int l = 0; l < layers; ++l) {
    // score_std 6 puts the scaled scores across the MRPC window, so rows
    // both clamp at the floor and keep several in-range magnitudes.
    const auto qkv = workload::random_qkv(static_cast<std::size_t>(seq_len), 16, 6.0, rng);
    const auto res = sim.run_attention_one(
        qkv, workload::sequence_seed(run_seed, static_cast<std::size_t>(l)));
    fnv_doubles(h, res.output.flat());
    fnv_doubles(h, res.probabilities.flat());
  }
  return h;
}

std::map<Key, std::uint64_t> compute_all() {
  std::map<Key, std::uint64_t> got;
  for (const double miss : kMissProbs) {
    core::StarConfig cfg;
    cfg.cam_miss_prob = miss;
    const core::BatchEncoderSim sim(cfg, nn::BertConfig::tiny(), 0xB127, 2);
    for (const int seq_len : kSeqLens) {
      for (const int layers : kLayers) {
        for (const std::uint64_t seed : kRunSeeds) {
          got[{"encoder", seq_len, layers, miss_text(miss), seed}] =
              encoder_hash(sim, seq_len, layers, seed);
          got[{"softmax", seq_len, layers, miss_text(miss), seed}] =
              softmax_hash(sim.softmax_engine(), seq_len, layers, seed);
        }
      }
    }
    for (const int seq_len : kAttentionSeqLens) {
      for (const int layers : kLayers) {
        for (const std::uint64_t seed : kRunSeeds) {
          got[{"attention", seq_len, layers, miss_text(miss), seed}] =
              attention_hash(sim, seq_len, layers, seed);
        }
      }
    }
  }
  return got;
}

std::map<Key, std::uint64_t> load_golden(const std::string& path) {
  std::map<Key, std::uint64_t> golden;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream row(line);
    std::string kind, seq_len, layers, miss, seed, hash;
    std::getline(row, kind, ',');
    std::getline(row, seq_len, ',');
    std::getline(row, layers, ',');
    std::getline(row, miss, ',');
    std::getline(row, seed, ',');
    std::getline(row, hash, ',');
    golden[{kind, std::stoi(seq_len), std::stoi(layers), miss, std::stoull(seed)}] =
        std::stoull(hash, nullptr, 16);
  }
  return golden;
}

TEST(PayloadGolden, OutputBitsMatchCheckedInHashes) {
  const auto golden = load_golden(std::string(STAR_TEST_GOLDEN_DIR) + "/payload_hashes.csv");
  const auto got = compute_all();
  ASSERT_EQ(got.size(), (2u * 9u + 7u) * 2u * 2u * 3u);

  int mismatches = 0;
  for (const auto& [key, hash] : got) {
    const auto it = golden.find(key);
    if (it == golden.end() || it->second != hash) {
      ++mismatches;
      ADD_FAILURE() << std::get<0>(key) << " L=" << std::get<1>(key)
                    << " layers=" << std::get<2>(key) << " miss=" << std::get<3>(key)
                    << " seed=" << std::get<4>(key) << ": payload hash differs";
    }
  }
  EXPECT_EQ(golden.size(), got.size());
  if (mismatches > 0 || golden.size() != got.size()) {
    std::printf("kind,seq_len,num_layers,cam_miss_prob,run_seed,fnv1a64\n");
    for (const auto& [key, hash] : got) {
      std::printf("%s,%d,%d,%s,%llu,%016llx\n", std::get<0>(key).c_str(),
                  std::get<1>(key), std::get<2>(key), std::get<3>(key).c_str(),
                  static_cast<unsigned long long>(std::get<4>(key)),
                  static_cast<unsigned long long>(hash));
    }
  }
}

}  // namespace
}  // namespace star
