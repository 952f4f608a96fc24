// Deterministic random number generation for reproducible simulations.
//
// All stochastic parts of the simulator (device variation, read noise,
// synthetic workloads) draw from star::Rng so that a (seed, code-path) pair
// fully determines every experiment. The engine is xoshiro256**, which is
// small, fast and has no global state.
#pragma once

#include <cstdint>
#include <vector>

namespace star {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// wrapped with convenience distributions used across the simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x5eed5a4dULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value. Inline, with uniform() and bernoulli(): the
  /// per-element fault draws of the softmax datapath run them in loops.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached spare value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *multiplicative* factor has median 1 and
  /// log-domain sigma `sigma_log`. Used for RRAM conductance variation.
  double lognormal_factor(double sigma_log);

  /// Bernoulli trial.
  bool bernoulli(double p_true) { return uniform() < p_true; }

  /// A vector of n independent normal(mean, stddev) samples.
  std::vector<double> normal_vector(std::size_t n, double mean, double stddev);

  /// Derive an independent child stream (for per-module reproducibility).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace star
