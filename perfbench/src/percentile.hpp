// Order statistics used for every reported figure.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between the
/// closest ranks (the "R-7" rule: numpy's default, and Python's
/// statistics.quantiles(method="inclusive")).  Reorders `v`.  Empty input
/// gives 0.
double quantile(std::vector<double>& v, double q);

/// quantile(v, 0.5) on a copy, so callers can keep their sample order.
double median(std::vector<double> v);

/// Median of a sample of whole-nanosecond readings, treating each reading
/// as covering [x - 0.5, x + 0.5) and interpolating inside the median's
/// bin (the grouped-data median).  Unlike the plain median it is not
/// confined to whole numbers, so it resolves shifts smaller than the
/// clock's 1 ns step.  Empty input gives 0.
double grouped_median(std::vector<double> v);

/// Summary of one latency-like sample.
struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0;
};
Percentiles percentiles(std::vector<double> v);

}  // namespace perfbench
