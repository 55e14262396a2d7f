// One run's outcome, printed as the benchmark's last line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< records offered (live) / replications
  std::uint64_t failed = 0;     ///< lost, or part of a leg that failed a check
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< what each failed check saw

  /// Adds a metric from the catalogue in result.cpp, which BENCHMARK.json
  /// mirrors (its unit comes from there).  Throws std::logic_error for a
  /// name the catalogue lacks.
  void add(const std::string& name, double value);
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
  /// Puts the metrics in catalogue order.  The end-to-end set must be
  /// complete; a per-layer metric whose layer the workload does not run
  /// reads 0.  Throws std::logic_error for a missing end-to-end metric.
  void finish(bool trace);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;
};


/// Parameters every workload runs with.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

}  // namespace perfbench
