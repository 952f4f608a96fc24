// Small numeric helpers shared across the simulator.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace star {

/// ceil(a / b) for positive integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Number of bits needed to represent values 0..n-1 (ceil(log2(n)), min 1;
/// 64 for every n above 2^63).
constexpr int bits_for(std::uint64_t n) {
  int bits = 1;
  while (bits < 64 && (1ULL << bits) < n) {
    ++bits;
  }
  return bits;
}

/// True if n is a power of two (n > 0).
constexpr bool is_pow2(std::uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Round to nearest, ties to even (the hardware-friendly rounding the
/// quantisers use by default). Branch-free and libm-free: adding and
/// subtracting 2^52 with v's sign leaves no fraction bits, so the FPU's
/// round-to-nearest-even (the default mode, never changed by the library)
/// does the rounding. Exact edge semantics, pinned bit for bit by
/// tests/test_util.cpp: |v| >= 2^52, +-inf and NaN come back unchanged,
/// -0.0 stays -0.0, and a negative v that rounds to zero gives +0.0.
inline double round_half_even(double v) {
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;  // 2^52
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const double shift = std::bit_cast<double>((bits & kSignBit) | kTwo52Bits);
  const double rounded = (v + shift) - shift;
  // Pass v through where the shift trick does not apply: already integral
  // (|v| >= 2^52, inf, NaN) or a signed zero the trick would turn into +0.
  const std::uint64_t mag = bits & ~kSignBit;
  const bool pass_through = mag >= kTwo52Bits || mag == 0;
  const std::uint64_t keep = std::uint64_t{0} - static_cast<std::uint64_t>(pass_through);
  return std::bit_cast<double>((bits & keep) |
                               (std::bit_cast<std::uint64_t>(rounded) & ~keep));
}

/// Clamp helper mirroring std::clamp but tolerant of lo > hi input checks.
double clamp(double v, double lo, double hi);

/// Mean of a span (0 for empty).
double mean(std::span<const double> xs);

/// Population standard deviation of a span (0 for size < 2).
double stddev(std::span<const double> xs);

/// max |a_i - b_i| over paired spans (asserts equal size).
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Root mean square of (a_i - b_i).
double rms_diff(std::span<const double> a, std::span<const double> b);

/// Kullback-Leibler divergence KL(p || q) for probability vectors.
/// Entries of q are floored at `eps` to keep the result finite.
double kl_divergence(std::span<const double> p, std::span<const double> q,
                     double eps = 1e-12);

/// Index of the maximum element (first occurrence). Asserts non-empty.
std::size_t argmax(std::span<const double> xs);

/// Cosine similarity between two vectors; 1.0 when either has zero norm
/// and both are zero, 0.0 if exactly one is zero.
double cosine_similarity(std::span<const double> a, std::span<const double> b);

}  // namespace star
