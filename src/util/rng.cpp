#include "util/rng.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = splitmix64(sm);
  }
  // A state of all zeros is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) {
    v = (*this)();
  }
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) {
    u1 = uniform();
  }
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.141592653589793 * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_factor(double sigma_log) {
  return std::exp(sigma_log * normal());
}

std::vector<double> Rng::normal_vector(std::size_t n, double mean, double stddev) {
  std::vector<double> out(n);
  for (auto& v : out) {
    v = normal(mean, stddev);
  }
  return out;
}

Rng Rng::fork() { return Rng((*this)()); }

}  // namespace star
