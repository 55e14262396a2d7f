// Self-telemetry metrics registry (DESIGN.md §8).
//
// The paper's central claim is that an instrumentation system must itself be
// measured (§2.3: intrusion, throughput, buffer occupancy).  This module
// turns that lens on our own engine and live IS pipeline: named counters,
// gauges, and fixed-bucket histograms registered in a process-wide registry
// and scraped into immutable snapshots for the reporter.
//
// Hot-path cost model:
//   * Counter::add is one relaxed atomic fetch_add on a per-thread shard
//     (cache-line padded), so concurrent writers never contend on a line.
//   * Gauge::set is one relaxed atomic store.
//   * Histogram::record is a branchless-ish bucket search plus two relaxed
//     atomics (bucket count and total count) and a CAS loop for the sum.
//   * Registry lookups happen once per call site (the PRISM_OBS_* macros in
//     obs/obs.hpp cache the reference in a function-local static).
//
// Values are monotonic between reset() calls; scraping never blocks writers.
// The compile-time kill switch lives in obs/obs.hpp: with PRISM_OBS=OFF the
// hook macros vanish, and these classes merely sit unused in the library.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace prism::obs {

/// Monotonic event counter, sharded per thread.  Each thread gets a stable
/// shard index on first use; add() touches only that thread's cache line.
/// value() sums the shards — a racy-but-consistent-enough scrape (each shard
/// read is atomic; the sum is a moment-in-time approximation, exact once
/// writers are quiescent).  Torn-read audit: each cell is individually
/// monotone and read atomically, so a value() sum is bounded by the true
/// totals at the first and last cell read — successive scrapes are monotone
/// non-decreasing, and no sum can double- or under-count a single add().
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cell().fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kShards = 16;  // power of two, indexed by & mask

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  std::atomic<std::uint64_t>& cell() noexcept {
    return cells_[thread_shard() & (kShards - 1)].v;
  }

  /// Stable per-thread shard index, shared by every Counter in the process.
  static unsigned thread_shard() noexcept {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

  std::array<Cell, kShards> cells_;
};

/// Last-write-wins instantaneous value (queue depth, calendar size, current
/// tracing level).  set/add are single relaxed atomics.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram.  Bucket i counts samples v <= bounds[i] (first
/// matching bound); the final implicit bucket counts overflows.  Bounds are
/// fixed at registration, so exported bucket boundaries are stable across a
/// process's lifetime and across export/import round trips.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Default bounds for nanosecond-scale latencies: 1us..10s, decades with
  /// 1/2/5 subdivision.
  static std::vector<double> latency_bounds_ns();
  /// Default bounds for percentages: 10, 20, ..., 90, 100.
  static std::vector<double> percent_bounds();
  /// `n` exponential bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t n);

  void record(double v) noexcept;
  /// Records the samples value(1), ..., value(n) of a non-decreasing series
  /// in one pass: the buckets end as after n record() calls, for one atomic
  /// add per bucket the series touches plus one each for count and sum.
  template <class F>
  void record_series(std::uint64_t n, F value) noexcept {
    if (n == 0) return;
    std::size_t idx = 0;
    std::uint64_t run = 0;
    double sum = 0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      const double v = value(k);
      std::size_t j = idx;
      while (j < bounds_.size() && bounds_[j] < v) ++j;
      if (j != idx) {
        if (run) buckets_[idx].fetch_add(run, std::memory_order_relaxed);
        idx = j;
        run = 0;
      }
      ++run;
      sum += v;
    }
    buckets_[idx].fetch_add(run, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_release);  // as in record()
    add_sum(sum);
  }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Acquire-loads the sample total.  Pairs with record()'s release
  /// increment: a reader that loads count() and *then* bucket_counts() sees
  /// every counted sample in some bucket (count <= sum of buckets), so a
  /// snapshot taken concurrently with record() is never torn the other way.
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }
  double sum() const noexcept;
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  void add_sum(double v) noexcept;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double stored via bit_cast CAS
};

// ---------------------------------------------------------------- snapshots

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};

/// Point-in-time scrape of every registered metric, sorted by name within
/// each kind.  Immutable: safe to hand to reporters and bench writers.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* counter(std::string_view name) const;
  const GaugeSample* gauge(std::string_view name) const;
  const HistogramSample* histogram(std::string_view name) const;
};

/// Process-wide metric registry.  Registration is idempotent by name:
/// the first call creates the metric, later calls return the same object
/// (histogram bounds from later calls are ignored).  Returned references
/// are stable for the process lifetime.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// Histogram with latency_bounds_ns() defaults.
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every value (registrations survive).  For per-run reporting.
  void reset();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace prism::obs
