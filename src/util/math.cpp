#include "util/math.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace star {

double clamp(double v, double lo, double hi) {
  STAR_ASSERT(lo <= hi, "clamp: lo must be <= hi");
  return std::min(std::max(v, lo), hi);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (double x : xs) {
    acc += x;
  }
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 0.0;
  }
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) {
    acc += (x - m) * (x - m);
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  STAR_ASSERT(a.size() == b.size(), "max_abs_diff: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

double rms_diff(std::span<const double> a, std::span<const double> b) {
  STAR_ASSERT(a.size() == b.size(), "rms_diff: size mismatch");
  if (a.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double kl_divergence(std::span<const double> p, std::span<const double> q, double eps) {
  STAR_ASSERT(p.size() == q.size(), "kl_divergence: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) {
      continue;  // lim p->0 of p log(p/q) = 0
    }
    acc += p[i] * std::log(p[i] / std::max(q[i], eps));
  }
  return acc;
}

std::size_t argmax(std::span<const double> xs) {
  STAR_ASSERT(!xs.empty(), "argmax: empty input");
  return static_cast<std::size_t>(
      std::distance(xs.begin(), std::max_element(xs.begin(), xs.end())));
}

double cosine_similarity(std::span<const double> a, std::span<const double> b) {
  STAR_ASSERT(a.size() == b.size(), "cosine_similarity: size mismatch");
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 && nb == 0.0) {
    return 1.0;
  }
  if (na == 0.0 || nb == 0.0) {
    return 0.0;
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace star
