// Metrics registry: sharded counters (including concurrent increments —
// run under TSan via `ctest -L sanitize`), gauges, fixed-bucket histograms,
// registry snapshot/reset, the text/JSON reporter, and the stability of
// histogram bucket boundaries across a JSON export/import round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"

namespace prism::obs {
namespace {

TEST(ObsCounter, CountsAcrossThreads) {
  Counter c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, AddN) {
  Counter c;
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
}

TEST(ObsGauge, SetAddValue) {
  Gauge g;
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketsSamplesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);     // <= 1
  h.record(1.0);     // <= 1 (bounds are inclusive upper limits)
  h.record(5.0);     // <= 10
  h.record(1000.0);  // > 100: overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ObsHistogram, RecordSeriesMatchesOneRecordPerSample) {
  // Occupancy series as a flushed LIS buffer reports them: k of n, in
  // percent.  Several land exactly on a bound (inclusive), and capacities
  // 7 and 3 give values that are not exact in binary.
  for (const std::uint64_t n : {1, 3, 7, 8, 10, 256}) {
    Histogram series(Histogram::percent_bounds());
    Histogram each(Histogram::percent_bounds());
    const auto pct = [n](std::uint64_t k) {
      return 100.0 * static_cast<double>(k) / static_cast<double>(n);
    };
    series.record_series(n, pct);
    for (std::uint64_t k = 1; k <= n; ++k) each.record(pct(k));
    EXPECT_EQ(series.bucket_counts(), each.bucket_counts()) << "n " << n;
    EXPECT_EQ(series.count(), n);
    EXPECT_NEAR(series.sum(), each.sum(), 1e-9 * each.sum());
  }
  Histogram h({1.0, 10.0, 100.0});
  h.record_series(0, [](std::uint64_t) { return 1.0; });
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, ConcurrentRecordsConserveCount) {
  Histogram h(Histogram::exponential_bounds(1, 10, 6));
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>((i + t) % 1000));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * static_cast<std::uint64_t>(kPerThread));
  std::uint64_t bucket_total = 0;
  for (auto b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsRegistry, IdempotentRegistrationStableReferences) {
  auto& reg = Registry::instance();
  Counter& a = reg.counter("test.registry.counter");
  Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("test.registry.hist", {1.0, 2.0});
  Histogram& h2 = reg.histogram("test.registry.hist", {9.0});  // ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsRegistry, SnapshotFindsRegisteredMetrics) {
  auto& reg = Registry::instance();
  reg.counter("test.snap.counter").add(3);
  reg.gauge("test.snap.gauge").set(-7);
  reg.histogram("test.snap.hist", {10.0, 20.0}).record(15.0);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.counter("test.snap.counter"), nullptr);
  EXPECT_GE(snap.counter("test.snap.counter")->value, 3u);
  ASSERT_NE(snap.gauge("test.snap.gauge"), nullptr);
  EXPECT_EQ(snap.gauge("test.snap.gauge")->value, -7);
  const auto* h = snap.histogram("test.snap.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, 1u);
  ASSERT_EQ(h->buckets.size(), h->bounds.size() + 1);
  EXPECT_EQ(snap.counter("test.snap.no_such_metric"), nullptr);
}

TEST(ObsReporter, TextReportListsEveryMetric) {
  auto& reg = Registry::instance();
  reg.counter("test.report.hits").add(11);
  reg.gauge("test.report.depth").set(4);
  reg.histogram("test.report.lat", {5.0, 50.0}).record(7.0);
  const std::string text = text_report(reg.snapshot());
  EXPECT_NE(text.find("test.report.hits"), std::string::npos);
  EXPECT_NE(text.find("test.report.depth"), std::string::npos);
  EXPECT_NE(text.find("test.report.lat"), std::string::npos);
  EXPECT_NE(text.find("counters:"), std::string::npos);
}

TEST(ObsReporter, JsonReportIsValidJson) {
  auto& reg = Registry::instance();
  reg.counter("test.json.count").add(2);
  reg.histogram("test.json.hist", {1.5, 2.5}).record(2.0);
  const std::string json = json_report(reg.snapshot());
  const auto doc = jsonlite::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_TRUE(doc->is_object());
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.json.count"), nullptr);
  EXPECT_GE(counters->find("test.json.count")->num, 2.0);
}

TEST(ObsReporter, HistogramBoundsStableAcrossExportImport) {
  // The round trip the bench files depend on: bounds serialized to JSON and
  // parsed back must be exactly the registered bounds, sample conservation
  // included.
  auto& reg = Registry::instance();
  const std::vector<double> bounds{0.001, 0.25, 3.0, 1e6, 2.5e9};
  auto& h = reg.histogram("test.roundtrip.hist", bounds);
  h.record(0.0005);
  h.record(2.0);
  h.record(1e12);  // overflow bucket
  const auto doc = jsonlite::parse(json_report(reg.snapshot()));
  ASSERT_TRUE(doc.has_value());
  const auto* hist = doc->find("histograms");
  ASSERT_NE(hist, nullptr);
  const auto* rt = hist->find("test.roundtrip.hist");
  ASSERT_NE(rt, nullptr);
  const auto* rt_bounds = rt->find("bounds");
  const auto* rt_buckets = rt->find("buckets");
  const auto* rt_count = rt->find("count");
  ASSERT_NE(rt_bounds, nullptr);
  ASSERT_NE(rt_buckets, nullptr);
  ASSERT_NE(rt_count, nullptr);
  ASSERT_EQ(rt_bounds->arr.size(), bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i)
    EXPECT_EQ(rt_bounds->arr[i].num, bounds[i]);  // exact: round-trip format
  ASSERT_EQ(rt_buckets->arr.size(), bounds.size() + 1);
  double bucket_sum = 0;
  for (const auto& b : rt_buckets->arr) bucket_sum += b.num;
  EXPECT_EQ(bucket_sum, rt_count->num);
  EXPECT_GE(rt_buckets->arr.back().num, 1.0);  // the overflow sample
}

TEST(ObsPeriodicReporter, PublishesAndStops) {
  std::atomic<int> seen{0};
  {
    PeriodicReporter rep(5, [&seen](const MetricsSnapshot&) { ++seen; });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    rep.stop();
  }
  EXPECT_GE(seen.load(), 1);
}

TEST(ObsKillSwitch, MacroHitsRegisterOnlyWhenCompiledIn) {
  const auto before = Registry::instance().snapshot();
  const auto* c0 = before.counter("test.killswitch.count");
  const std::uint64_t v0 = c0 ? c0->value : 0;
  PRISM_OBS_COUNT("test.killswitch.count");
  PRISM_OBS_COUNT_N("test.killswitch.count", 4);
  const auto after = Registry::instance().snapshot();
  const auto* c1 = after.counter("test.killswitch.count");
  if (compiled_in()) {
    ASSERT_NE(c1, nullptr);
    EXPECT_EQ(c1->value, v0 + 5);
  } else {
    EXPECT_EQ(c1, nullptr);
  }
}

}  // namespace
}  // namespace prism::obs
