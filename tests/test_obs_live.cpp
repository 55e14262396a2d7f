// The live telemetry plane (DESIGN.md §14): HealthSnapshot conservation
// arithmetic, the HealthBoard seqlock (readers never see a torn snapshot),
// the FlightRecorder ring (order, wraparound, concurrent producers, JSON
// dump), the Prometheus text exposition (golden strings: names, HELP/TYPE
// lines, label escaping, cumulative buckets), the health JSON schema, and
// the TelemetrySampler (deltas, final sample on stop).  The registry
// torn-read stress lives here too — run this binary under
// -DPRISM_SANITIZE=thread for the TSan pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_check.hpp"
#include "obs/live/expo.hpp"
#include "obs/live/flight.hpp"
#include "obs/live/health.hpp"
#include "obs/live/sampler.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"

namespace prism {
namespace {

using obs::live::CounterHealth;
using obs::live::HealthBoard;
using obs::live::HealthSnapshot;
using obs::live::StageHealth;
using obs::live::TelemetrySampler;

// ---- HealthSnapshot ----------------------------------------------------------

TEST(HealthSnapshot, AddStageDerivesInFlightFromTheIdentity) {
  HealthSnapshot s;
  const StageHealth* row = s.add_stage("lis", 100, 70, 10);
  ASSERT_NE(row, nullptr);
  EXPECT_STREQ(row->name, "lis");
  EXPECT_EQ(row->in_flight, 20u);
  EXPECT_EQ(row->torn, 0u);
  EXPECT_TRUE(row->conserved());
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.stage("lis"), row);
  EXPECT_EQ(s.stage("nope"), nullptr);
}

TEST(HealthSnapshot, NegativeResidueLatchesTornInsteadOfWrapping) {
  HealthSnapshot s;
  // completed + lost > admitted: only possible when the collector read the
  // counters in the wrong order.
  const StageHealth* row = s.add_stage("ism", 5, 4, 2);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->in_flight, 0u);
  EXPECT_EQ(row->torn, 1u);
  EXPECT_FALSE(row->conserved());
  EXPECT_FALSE(s.conserved());
}

TEST(HealthSnapshot, StageTableOverflowReturnsNull) {
  HealthSnapshot s;
  for (std::uint32_t i = 0; i < HealthSnapshot::kMaxStages; ++i)
    ASSERT_NE(s.add_stage("s" + std::to_string(i), i, i, 0), nullptr);
  EXPECT_EQ(s.add_stage("one-too-many", 1, 0, 0), nullptr);
  EXPECT_EQ(s.stage_count, HealthSnapshot::kMaxStages);
}

TEST(HealthSnapshot, LongStageNamesTruncateNulTerminated) {
  HealthSnapshot s;
  const StageHealth* row =
      s.add_stage("a-very-long-stage-name-indeed", 1, 1, 0);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(std::strlen(row->name), sizeof row->name - 1);
  EXPECT_EQ(std::string_view(row->name), "a-very-long-sta");
}

// ---- HealthBoard seqlock -----------------------------------------------------

TEST(HealthBoard, ReadBeforeAnyPublishReturnsFalse) {
  HealthBoard b;
  HealthSnapshot out;
  EXPECT_FALSE(b.read(out));
  EXPECT_EQ(b.published(), 0u);
}

TEST(HealthBoard, RoundTripsTheLatestSnapshot) {
  HealthBoard b;
  HealthSnapshot in;
  in.seq = 7;
  in.add_stage("lis", 42, 40, 1);
  in.records_lost_send = 1;
  b.publish(in);
  in.seq = 8;
  b.publish(in);

  HealthSnapshot out;
  ASSERT_TRUE(b.read(out));
  EXPECT_EQ(out.seq, 8u);
  EXPECT_EQ(out.version, obs::live::kHealthSnapshotVersion);
  ASSERT_NE(out.stage("lis"), nullptr);
  EXPECT_EQ(out.stage("lis")->admitted, 42u);
  EXPECT_EQ(out.stage("lis")->in_flight, 1u);
  EXPECT_EQ(out.records_lost_send, 1u);
  EXPECT_EQ(b.published(), 2u);
}

// Writer publishes self-consistent snapshots as fast as it can; readers must
// never observe a mixture of two publishes.  Every field in the payload is a
// function of seq, so one cross-check per read proves atomicity.
TEST(HealthBoard, ConcurrentReadersNeverSeeATornSnapshot) {
  HealthBoard b;
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;

  std::thread writer([&] {
    HealthSnapshot s;
    for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      s.seq = i;
      s.stage_count = 0;
      s.add_stage("a", i * 3, i * 2, i);       // in_flight == 0
      s.add_stage("b", i * 7, i * 5, 0);       // in_flight == 2i
      s.records_lost_send = i * 11;
      s.alloc_bytes = i * 13;
      b.publish(s);
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      HealthSnapshot out;
      std::uint64_t last_seq = 0;
      while (reads.fetch_add(1, std::memory_order_relaxed) < 20000) {
        if (!b.read(out)) continue;
        const std::uint64_t i = out.seq;
        ASSERT_GE(i, last_seq);  // publishes are monotone
        last_seq = i;
        const StageHealth* a = out.stage("a");
        const StageHealth* bb = out.stage("b");
        ASSERT_NE(a, nullptr);
        ASSERT_NE(bb, nullptr);
        ASSERT_EQ(a->admitted, i * 3);
        ASSERT_EQ(a->completed, i * 2);
        ASSERT_EQ(a->lost, i);
        ASSERT_EQ(bb->admitted, i * 7);
        ASSERT_EQ(bb->in_flight, i * 2);
        ASSERT_EQ(out.records_lost_send, i * 11);
        ASSERT_EQ(out.alloc_bytes, i * 13);
        ASSERT_TRUE(out.conserved());
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---- FlightRecorder ----------------------------------------------------------

#if PRISM_OBS_ENABLED

using obs::live::FlightEvent;
using obs::live::FlightRecorder;

TEST(FlightRecorder, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
  EXPECT_THROW(FlightRecorder(3), std::invalid_argument);
  EXPECT_NO_THROW(FlightRecorder(8));
}

TEST(FlightRecorder, TailReturnsEventsOldestFirst) {
  FlightRecorder rec(16);
  rec.record("fault", "crash@tp_send", 2, 0);
  rec.record("send_loss", "retry_exhausted", 1, 5);
  rec.record("wire_loss", "frame_corrupt", 0, 3);
  EXPECT_EQ(rec.recorded(), 3u);

  const auto events = rec.tail();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].category, "fault");
  EXPECT_STREQ(events[0].detail, "crash@tp_send");
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_STREQ(events[1].category, "send_loss");
  EXPECT_EQ(events[1].count, 5u);
  EXPECT_STREQ(events[2].category, "wire_loss");
  // Timestamps are monotone within one thread.
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  EXPECT_LE(events[1].t_ns, events[2].t_ns);

  // tail(max) keeps the most recent events.
  const auto last2 = rec.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_STREQ(last2[0].category, "send_loss");
  EXPECT_STREQ(last2[1].category, "wire_loss");
}

TEST(FlightRecorder, WrapsAroundKeepingTheMostRecentCapacityEvents) {
  FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i)
    rec.record("fault", std::to_string(i), 0, static_cast<std::uint64_t>(i));
  EXPECT_EQ(rec.recorded(), 20u);
  const auto events = rec.tail();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].count, 12 + i);  // 12..19, oldest first
}

TEST(FlightRecorder, CategoryQueriesSumCountsAndCountEvents) {
  FlightRecorder rec(16);
  rec.record("wire_loss", "a", 0, 3);
  rec.record("wire_loss", "b", 1, 4);
  rec.record("lis_crash", "tp_send", 2, 1);
  EXPECT_EQ(rec.count_in_category("wire_loss"), 7u);
  EXPECT_EQ(rec.events_in_category("wire_loss"), 2u);
  EXPECT_EQ(rec.events_in_category("lis_crash"), 1u);
  EXPECT_EQ(rec.count_in_category("nothing"), 0u);
}

TEST(FlightRecorder, ResetHidesOlderEvents) {
  FlightRecorder rec(16);
  rec.record("fault", "before", 0, 0);
  rec.reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.tail().empty());
  rec.record("fault", "after", 0, 0);
  const auto events = rec.tail();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].detail, "after");
}

TEST(FlightRecorder, LongNamesTruncateInsideTheFixedSlot) {
  FlightRecorder rec(8);
  rec.record("category-name-much-too-long-to-fit",
             "detail-string-also-much-too-long-to-fit", 9, 1);
  const auto events = rec.tail();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].category),
            sizeof(FlightEvent{}.category) - 1);
  EXPECT_EQ(std::strlen(events[0].detail), sizeof(FlightEvent{}.detail) - 1);
}

TEST(FlightRecorder, DumpJsonIsValidAndCarriesTheEvents) {
  FlightRecorder rec(16);
  rec.record("stream_corrupt", "needs\"escaping\\here", 3, 0);
  rec.record("retry", "tp_send", 1, 2);
  const std::string json = rec.dump_json();
  const auto doc = obs::jsonlite::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("recorded")->num, 2);
  EXPECT_EQ(doc->find("capacity")->num, 16);
  const auto* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->arr.size(), 2u);
  EXPECT_EQ(events->arr[0].find("category")->str, "stream_corrupt");
  EXPECT_EQ(events->arr[0].find("detail")->str, "needs\"escaping\\here");
  EXPECT_EQ(events->arr[1].find("count")->num, 2);
  EXPECT_EQ(events->arr[1].find("node")->num, 1);
}

// Many producers hammer one ring; the dump must stay internally consistent
// (every kept slot is a complete event, never a splice of two).
TEST(FlightRecorder, ConcurrentProducersNeverTearASlot) {
  FlightRecorder rec(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&rec, t] {
      const std::string cat = "cat" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i)
        rec.record(cat, "detail", static_cast<std::uint32_t>(t),
                   static_cast<std::uint64_t>(t + 1));
      });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& ev : rec.tail()) {
        // category determines both node and count: a torn slot would break
        // the correspondence.
        ASSERT_EQ(std::string_view(ev.category).substr(0, 3), "cat");
        const unsigned t = static_cast<unsigned>(ev.category[3] - '0');
        ASSERT_LT(t, static_cast<unsigned>(kThreads));
        ASSERT_EQ(ev.node, t);
        ASSERT_EQ(ev.count, t + 1);
      }
    }
  });
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#endif  // PRISM_OBS_ENABLED

// ---- Prometheus exposition ---------------------------------------------------

TEST(Exposition, PrometheusNameSanitizes) {
  using obs::live::prometheus_name;
  EXPECT_EQ(prometheus_name("ism.records_received"), "ism_records_received");
  EXPECT_EQ(prometheus_name("lis/flush-time"), "lis_flush_time");
  EXPECT_EQ(prometheus_name("ok_name:subsystem"), "ok_name:subsystem");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name(""), "");
}

TEST(Exposition, EscapeLabelValue) {
  using obs::live::escape_label_value;
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

// Golden test over a hand-built snapshot: the exposition must be byte-stable
// (scrapers and the CI gate parse it), so this string is the contract.
TEST(Exposition, GoldenRegistryFamilies) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"ism.records", 12});
  snap.gauges.push_back({"queue.depth", -3});
  obs::HistogramSample h;
  h.name = "flush.ns";
  h.count = 6;
  h.sum = 250;
  h.bounds = {10, 100};
  h.buckets = {1, 3, 2};  // last = overflow
  snap.histograms.push_back(h);

  const std::string expo = obs::live::prometheus_exposition(snap);
  const std::string expected =
      "# HELP prism_ism_records_total registry counter ism.records\n"
      "# TYPE prism_ism_records_total counter\n"
      "prism_ism_records_total 12\n"
      "# HELP prism_queue_depth registry gauge queue.depth\n"
      "# TYPE prism_queue_depth gauge\n"
      "prism_queue_depth -3\n"
      "# HELP prism_flush_ns registry histogram flush.ns\n"
      "# TYPE prism_flush_ns histogram\n"
      "prism_flush_ns_bucket{le=\"10\"} 1\n"
      "prism_flush_ns_bucket{le=\"100\"} 4\n"
      "prism_flush_ns_bucket{le=\"+Inf\"} 6\n"
      "prism_flush_ns_sum 250\n"
      "prism_flush_ns_count 6\n";
  EXPECT_EQ(expo, expected);
}

TEST(Exposition, GoldenHealthBlock) {
  obs::MetricsSnapshot empty;
  HealthSnapshot hs;
  hs.seq = 4;
  hs.t_wall_ns = 1000;
  hs.add_stage("lis", 10, 7, 1);
  hs.lises_dead = 1;
  hs.records_lost_send = 1;
  hs.degraded = 1;
  hs.alloc_count = 5;
  hs.alloc_bytes = 320;
  hs.flight_events = 2;

  const std::string expo =
      obs::live::prometheus_exposition(empty, &hs, /*now_ns=*/1500);
  const std::string expected =
      "# HELP prism_pipeline_records pipeline conservation ledger per stage\n"
      "# TYPE prism_pipeline_records gauge\n"
      "prism_pipeline_records{stage=\"lis\",state=\"admitted\"} 10\n"
      "prism_pipeline_records{stage=\"lis\",state=\"completed\"} 7\n"
      "prism_pipeline_records{stage=\"lis\",state=\"lost\"} 1\n"
      "prism_pipeline_records{stage=\"lis\",state=\"in_flight\"} 2\n"
      "prism_pipeline_records{stage=\"lis\",state=\"refused\"} 0\n"
      "# HELP prism_pipeline_conserved 1 when admitted == completed + lost + "
      "in_flight\n"
      "# TYPE prism_pipeline_conserved gauge\n"
      "prism_pipeline_conserved{stage=\"lis\"} 1\n"
      "# HELP prism_degradation degradation ledger (DegradationReport "
      "mirror)\n"
      "# TYPE prism_degradation gauge\n"
      "prism_degradation{kind=\"lises_dead\"} 1\n"
      "prism_degradation{kind=\"tools_failed\"} 0\n"
      "prism_degradation{kind=\"records_lost_send\"} 1\n"
      "prism_degradation{kind=\"records_lost_dead\"} 0\n"
      "prism_degradation{kind=\"records_lost_wire\"} 0\n"
      "prism_degradation{kind=\"control_dropped\"} 0\n"
      "prism_degradation{kind=\"holdback_expired\"} 0\n"
      "prism_degradation{kind=\"shards_dead\"} 0\n"
      "prism_degradation{kind=\"records_lost_uplink\"} 0\n"
      "prism_degradation{kind=\"records_lost_agg\"} 0\n"
      "# HELP prism_degraded 1 when any degradation field is nonzero\n"
      "# TYPE prism_degraded gauge\n"
      "prism_degraded 1\n"
      "# HELP prism_alloc_bytes_total bytes allocated (prof interposition)\n"
      "# TYPE prism_alloc_bytes_total counter\n"
      "prism_alloc_bytes_total 320\n"
      "# HELP prism_alloc_count_total allocations (prof interposition)\n"
      "# TYPE prism_alloc_count_total counter\n"
      "prism_alloc_count_total 5\n"
      "# HELP prism_flight_events_total flight-recorder events recorded\n"
      "# TYPE prism_flight_events_total counter\n"
      "prism_flight_events_total 2\n"
      "# HELP prism_health_sample_seq sample number of this snapshot\n"
      "# TYPE prism_health_sample_seq counter\n"
      "prism_health_sample_seq 4\n"
      "# HELP prism_health_sample_age_ns steady-clock age of this snapshot\n"
      "# TYPE prism_health_sample_age_ns gauge\n"
      "prism_health_sample_age_ns 500\n";
  EXPECT_EQ(expo, expected);
}

TEST(Exposition, SampleAgeClampsAtZero) {
  obs::MetricsSnapshot empty;
  HealthSnapshot hs;
  hs.t_wall_ns = 2000;
  const std::string expo =
      obs::live::prometheus_exposition(empty, &hs, /*now_ns=*/1000);
  EXPECT_NE(expo.find("prism_health_sample_age_ns 0\n"), std::string::npos);
}

TEST(Exposition, HealthJsonIsValidAndComplete) {
  HealthSnapshot hs;
  hs.seq = 9;
  hs.add_stage("lis", 20, 15, 2);
  hs.add_stage("ism", 15, 15, 0);
  hs.records_lost_send = 2;
  hs.degraded = 1;
  hs.counter_count = 1;
  HealthSnapshot::copy_name(hs.counters[0].name, sizeof hs.counters[0].name,
                            "ism.records");
  hs.counters[0].value = 15;
  hs.counters[0].delta = 5;

  const std::string json = obs::live::health_json(hs);
  const auto doc = obs::jsonlite::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->find("version")->num, obs::live::kHealthSnapshotVersion);
  EXPECT_EQ(doc->find("seq")->num, 9);
  EXPECT_TRUE(doc->find("degraded")->b);
  EXPECT_EQ(doc->find("degradation")->find("records_lost_send")->num, 2);
  const auto* stages = doc->find("stages");
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(stages->arr.size(), 2u);
  EXPECT_EQ(stages->arr[0].find("name")->str, "lis");
  EXPECT_EQ(stages->arr[0].find("in_flight")->num, 3);
  EXPECT_TRUE(stages->arr[0].find("conserved")->b);
  const auto* counters = doc->find("counters");
  ASSERT_TRUE(counters->is_array());
  ASSERT_EQ(counters->arr.size(), 1u);
  EXPECT_EQ(counters->arr[0].find("name")->str, "ism.records");
  EXPECT_EQ(counters->arr[0].find("delta")->num, 5);
}

// ---- TelemetrySampler --------------------------------------------------------

TEST(TelemetrySampler, RejectsZeroPeriod) {
  EXPECT_THROW(TelemetrySampler({.period_ms = 0}, nullptr),
               std::invalid_argument);
}

TEST(TelemetrySampler, CollectorFillsStagesAndDegradedIsDerived) {
  TelemetrySampler sampler({.period_ms = 60'000, .include_registry = false},
                           [](HealthSnapshot& s) {
                             s.add_stage("lis", 10, 8, 1);
                             s.records_lost_wire = 1;
                           });
  sampler.sample_now();
  HealthSnapshot hs;
  ASSERT_TRUE(sampler.read(hs));
  EXPECT_GE(hs.seq, 1u);
  EXPECT_GT(hs.t_wall_ns, 0u);
  ASSERT_NE(hs.stage("lis"), nullptr);
  EXPECT_EQ(hs.stage("lis")->in_flight, 1u);
  EXPECT_EQ(hs.degraded, 1u);  // derived from records_lost_wire
  EXPECT_TRUE(hs.conserved());
}

TEST(TelemetrySampler, RegistryCountersCarryDeltas) {
  auto& c = obs::Registry::instance().counter("live_test.delta_counter");
  c.reset();
  c.add(5);
  TelemetrySampler sampler({.period_ms = 60'000}, nullptr);
  sampler.sample_now();
  HealthSnapshot hs;
  ASSERT_TRUE(sampler.read(hs));
  const CounterHealth* row = hs.counter("live_test.delta_counter");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value, 5u);
  EXPECT_EQ(row->delta, 5u);  // first sample: delta == value

  c.add(3);
  sampler.sample_now();
  ASSERT_TRUE(sampler.read(hs));
  row = hs.counter("live_test.delta_counter");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value, 8u);
  EXPECT_EQ(row->delta, 3u);
}

TEST(TelemetrySampler, StopPublishesAFinalSample) {
  // Period far longer than the test: the only samples are the final one
  // stop() forces (plus any sample_now calls).
  TelemetrySampler sampler({.period_ms = 60'000, .include_registry = false},
                           nullptr);
  sampler.stop();
  EXPECT_GE(sampler.samples(), 1u);
  HealthSnapshot hs;
  EXPECT_TRUE(sampler.read(hs));
  sampler.stop();  // idempotent
}

TEST(TelemetrySampler, PeriodicSamplesAdvanceTheSeq) {
  TelemetrySampler sampler({.period_ms = 1, .include_registry = false},
                           nullptr);
  HealthSnapshot hs;
  for (int i = 0; i < 200 && sampler.samples() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sampler.stop();
  EXPECT_GE(sampler.samples(), 3u);
  ASSERT_TRUE(sampler.read(hs));
  EXPECT_EQ(hs.seq, sampler.samples());
}

// ---- report.cpp satellite: prof + flight planes ------------------------------

TEST(ReportOptions, TextReportAppendsProfAndFlight) {
  obs::MetricsSnapshot snap;
  obs::ReportOptions opts;
  opts.include_prof = true;
  opts.flight_tail = 4;
#if PRISM_OBS_ENABLED
  FlightRecorder::instance().reset();
  FlightRecorder::instance().record("fault", "report_test", 1, 2);
#endif
  const std::string text = obs::text_report(snap, opts);
  EXPECT_NE(text.find("prof:"), std::string::npos);
#if PRISM_OBS_ENABLED
  EXPECT_NE(text.find("flight: recorded=1"), std::string::npos);
  EXPECT_NE(text.find("report_test"), std::string::npos);
#endif
}

TEST(ReportOptions, JsonReportSplicesExtraKeysAndStaysValid) {
  obs::MetricsSnapshot snap;
  obs::ReportOptions opts;
  opts.include_prof = true;
  opts.flight_tail = 4;
  const std::string json = obs::json_report(snap, opts);
  const auto doc = obs::jsonlite::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_NE(doc->find("prof"), nullptr);
  EXPECT_NE(doc->find("prof")->find("allocs"), nullptr);
#if PRISM_OBS_ENABLED
  ASSERT_NE(doc->find("flight"), nullptr);
  EXPECT_NE(doc->find("flight")->find("events"), nullptr);
#endif
  // Base keys survive the splice untouched.
  EXPECT_NE(doc->find("counters"), nullptr);
  EXPECT_NE(doc->find("histograms"), nullptr);
}

// ---- Registry torn-read stress (satellite) -----------------------------------
// Run under -DPRISM_SANITIZE=thread: record() and snapshot() race by design,
// and the contract is (a) no data race (all atomics), (b) count <= sum of
// buckets in every snapshot (record orders bucket-before-count), (c) counter
// sums are monotone non-decreasing across snapshots.

TEST(RegistryTornRead, HistogramSnapshotNeverUndercountsBuckets) {
  auto& reg = obs::Registry::instance();
  auto& h = reg.histogram("live_test.torn_hist", {1.0, 2.0, 4.0, 8.0});
  h.reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop, t] {
      double v = 0.5 * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        v = v > 16 ? 0.25 : v * 1.7;
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    // Read order matters and mirrors Registry::snapshot(): count first
    // (acquire), buckets second — every counted sample is visible in a
    // bucket, so count <= sum(buckets) even mid-record.
    const std::uint64_t count = h.count();
    const auto buckets = h.bucket_counts();
    std::uint64_t sum = 0;
    for (const auto b : buckets) sum += b;
    ASSERT_LE(count, sum) << "snapshot " << i;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  // Quiescent: the identity is exact.
  std::uint64_t sum = 0;
  for (const auto b : h.bucket_counts()) sum += b;
  EXPECT_EQ(h.count(), sum);
}

TEST(RegistryTornRead, CounterScrapesAreMonotoneUnderConcurrentAdds) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("live_test.torn_counter");
  c.reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&c, &stop] {
      while (!stop.load(std::memory_order_relaxed)) c.add(1);
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = c.value();
    ASSERT_GE(v, last);
    last = v;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

TEST(RegistryTornRead, FullSnapshotUnderConcurrentRecordingIsConsistent) {
  auto& reg = obs::Registry::instance();
  auto& h = reg.histogram("live_test.torn_snap_hist", {10.0, 100.0});
  auto& c = reg.counter("live_test.torn_snap_counter");
  h.reset();
  c.reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    double v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      h.record(v);
      c.add(2);
      v = v > 500 ? 1 : v * 3;
    }
  });
  std::uint64_t last_counter = 0;
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    const auto* hist = snap.histogram("live_test.torn_snap_hist");
    ASSERT_NE(hist, nullptr);
    std::uint64_t sum = 0;
    for (const auto b : hist->buckets) sum += b;
    ASSERT_LE(hist->count, sum);
    const auto* counter = snap.counter("live_test.torn_snap_counter");
    ASSERT_NE(counter, nullptr);
    ASSERT_GE(counter->value, last_counter);
    last_counter = counter->value;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace prism
