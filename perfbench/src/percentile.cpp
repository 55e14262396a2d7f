#include "percentile.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  // After nth_element everything past lo is >= a; the next rank is their min.
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi),
                                     v.end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double grouped_median(std::vector<double> v) {
  if (v.empty()) return 0;
  const double half = 0.5 * static_cast<double>(v.size());
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  const double x = *mid;
  double below = 0, at = 0;
  for (const double y : v) {
    below += y < x;
    at += y == x;
  }
  return x - 0.5 + (half - below) / at;
}

Percentiles percentiles(std::vector<double> v) {
  Percentiles p;
  p.p50 = quantile(v, 0.50);
  p.p90 = quantile(v, 0.90);
  p.p99 = quantile(v, 0.99);
  return p;
}

}  // namespace perfbench
