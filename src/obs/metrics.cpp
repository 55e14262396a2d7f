#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace prism::obs {

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: no bucket bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("Histogram: bounds must strictly increase");
}

std::vector<double> Histogram::latency_bounds_ns() {
  // 1us .. 10s in 1/2/5 decade steps.
  std::vector<double> b;
  for (double decade = 1e3; decade <= 1e9; decade *= 10) {
    b.push_back(decade);
    b.push_back(2 * decade);
    b.push_back(5 * decade);
  }
  b.push_back(1e10);
  return b;
}

std::vector<double> Histogram::percent_bounds() {
  std::vector<double> b;
  for (double p = 10; p <= 100; p += 10) b.push_back(p);
  return b;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t n) {
  if (!(start > 0) || !(factor > 1) || n == 0)
    throw std::invalid_argument("Histogram: bad exponential bounds");
  std::vector<double> b;
  b.reserve(n);
  double v = start;
  for (std::size_t i = 0; i < n; ++i, v *= factor) b.push_back(v);
  return b;
}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  // Torn-read discipline (paired with count()/snapshot()): the bucket is
  // bumped first and count_ published with release, so a scraper that reads
  // count_ (acquire) *before* the buckets can never observe a sample in the
  // total that is missing from every bucket — concurrent snapshots satisfy
  // count <= sum(buckets), with equality at quiescence.
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
  add_sum(v);
}

void Histogram::add_sum(double v) noexcept {
  // Double-precision sum via CAS on the bit pattern; contention is rare
  // (histograms sit off the per-event fast path or tolerate a few retries).
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double next = std::bit_cast<double>(expected) + v;
    if (sum_bits_.compare_exchange_weak(expected, std::bit_cast<std::uint64_t>(
                                                      next),
                                        std::memory_order_relaxed))
      break;
  }
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_)
    out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- snapshot

namespace {

template <typename Vec>
const typename Vec::value_type* find_sample(const Vec& v,
                                            std::string_view name) {
  for (const auto& s : v)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace

const CounterSample* MetricsSnapshot::counter(std::string_view name) const {
  return find_sample(counters, name);
}

const GaugeSample* MetricsSnapshot::gauge(std::string_view name) const {
  return find_sample(gauges, name);
}

const HistogramSample* MetricsSnapshot::histogram(
    std::string_view name) const {
  return find_sample(histograms, name);
}

// ---------------------------------------------------------------- Registry

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  return histogram(name, Histogram::latency_bounds_ns());
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lk(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.push_back(CounterSample{name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.push_back(GaugeSample{name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    // Read order is load-bearing: count (acquire) strictly before the bucket
    // cells, pairing with record()'s bucket-then-count(release) write order.
    // The acquire/release edge guarantees s.count <= sum(s.buckets) even
    // mid-record; sum is a racy CAS cell and stays an approximation.
    s.count = h->count();
    s.sum = h->sum();
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    out.histograms.push_back(std::move(s));
  }
  return out;  // maps iterate sorted, so samples are name-sorted already
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace prism::obs
