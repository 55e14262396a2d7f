// The three LIS styles: buffered (FOF/FAOF + coordinator), forwarding, and
// daemon (sampling, pipes, control plane).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/lis.hpp"
#include "obs/obs.hpp"

namespace prism::core {
namespace {

#if PRISM_OBS_ENABLED
/// Current value of a telemetry counter (0 if nothing registered it yet);
/// overflow tests assert deltas, since the registry is process-global.
std::uint64_t obs_count(std::string_view name) {
  const auto snap = ::prism::obs::Registry::instance().snapshot();
  const auto* c = snap.counter(name);
  return c ? c->value : 0;
}
#endif

trace::EventRecord rec(std::uint32_t node = 0, std::uint32_t process = 0,
                       std::uint64_t seq = 0) {
  trace::EventRecord r;
  r.node = node;
  r.process = process;
  r.seq = seq;
  return r;
}

/// Drains every currently queued batch from a link.
std::vector<DataBatch> drain(DataLink& link) {
  std::vector<DataBatch> out;
  while (auto m = link.try_pop()) {
    if (auto* b = std::get_if<DataBatch>(&*m)) out.push_back(std::move(*b));
  }
  return out;
}

// ---- BufferedLis --------------------------------------------------------------

TEST(BufferedLis, FofFlushesOwnBufferWhenFull) {
  DataLink link(16);
  BufferedLis lis(0, 3, std::make_unique<FlushOnFill>(), link);
  lis.record(rec(0, 0, 0));
  lis.record(rec(0, 0, 1));
  EXPECT_TRUE(drain(link).empty());
  lis.record(rec(0, 0, 2));  // fills -> flush
  auto batches = drain(link);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records.size(), 3u);
  EXPECT_EQ(batches[0].source_node, 0u);
  const auto s = lis.stats();
  EXPECT_EQ(s.recorded, 3u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.records_forwarded, 3u);
  EXPECT_TRUE(s.conserved());
}

TEST(BufferedLis, ManualFlushShipsPartialBuffer) {
  DataLink link(16);
  BufferedLis lis(1, 100, std::make_unique<FlushOnFill>(), link);
  lis.record(rec(1));
  lis.flush();
  auto batches = drain(link);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records.size(), 1u);
}

TEST(BufferedLis, EmptyFlushIsNoop) {
  DataLink link(16);
  BufferedLis lis(0, 4, std::make_unique<FlushOnFill>(), link);
  lis.flush();
  EXPECT_TRUE(drain(link).empty());
  EXPECT_EQ(lis.stats().flushes, 0u);
}

TEST(BufferedLis, StopFlushesAndRefusesFurtherRecords) {
  DataLink link(16);
  BufferedLis lis(0, 100, std::make_unique<FlushOnFill>(), link);
  lis.record(rec());
  lis.stop();
  EXPECT_EQ(drain(link).size(), 1u);
  lis.record(rec());
  EXPECT_EQ(lis.stats().recorded, 1u);
}

TEST(BufferedLis, FaofRequiresCoordinator) {
  DataLink link(16);
  EXPECT_THROW(
      BufferedLis(0, 4, std::make_unique<FlushAllOnFill>(), link, nullptr),
      std::invalid_argument);
}

TEST(BufferedLis, FaofGangFlushesAllMembers) {
  DataLink link(64);
  FlushCoordinator coord;
  BufferedLis a(0, 3, std::make_unique<FlushAllOnFill>(), link, &coord);
  BufferedLis b(1, 3, std::make_unique<FlushAllOnFill>(), link, &coord);
  // b holds one record; filling a must flush BOTH.
  b.record(rec(1, 0, 0));
  a.record(rec(0, 0, 0));
  a.record(rec(0, 0, 1));
  a.record(rec(0, 0, 2));  // fills a -> gang flush
  auto batches = drain(link);
  ASSERT_EQ(batches.size(), 2u);
  std::size_t total = 0;
  for (auto& batch : batches) total += batch.records.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(coord.gang_flushes(), 1u);
  EXPECT_EQ(b.stats().flushes, 1u);  // flushed although not full
}

TEST(BufferedLis, DropsWhenFullAndPolicySilent) {
  // Threshold policy at 1.0 never fires below full; use a buffer that the
  // policy ignores by filling then dropping one (policy fires at full, so
  // use a policy that never triggers to observe drops).
  class NeverFlush final : public FlushPolicy {
   public:
    std::size_t trigger(std::size_t capacity) const override {
      return capacity + 1;
    }
    std::string_view name() const override { return "never"; }
  };
  DataLink link(16);
  BufferedLis lis(0, 2, std::make_unique<NeverFlush>(), link);
#if PRISM_OBS_ENABLED
  const std::uint64_t dropped_before = obs_count("core.lis.dropped");
#endif
  lis.record(rec());
  lis.record(rec());
  lis.record(rec());  // dropped
  EXPECT_EQ(lis.stats().dropped, 1u);
  EXPECT_EQ(lis.stats().recorded, 2u);
#if PRISM_OBS_ENABLED
  // The overflow also surfaced through the telemetry counter.
  EXPECT_EQ(obs_count("core.lis.dropped") - dropped_before, 1u);
#endif
}

TEST(BufferedLis, AdaptiveFlushesBeforeFullUnderHighRate) {
  // Records 1 us apart against a 10 us target: once the first (full) buffer
  // has shipped, the policy has a rate and later buffers flush at ~10
  // records, well before the 100-record buffer fills.
  DataLink link(1024);
  BufferedLis lis(0, 100, std::make_unique<AdaptiveThresholdFlush>(10'000),
                  link);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto r = rec(0, 0, i);
    r.timestamp = (i + 1) * 1000;
    lis.record(r);
  }
  lis.stop();
  const auto batches = drain(link);
  ASSERT_GE(batches.size(), 2u);
  EXPECT_EQ(batches[0].records.size(), 100u);  // no rate yet: full, like FOF
  for (std::size_t i = 1; i < batches.size(); ++i)
    EXPECT_LE(batches[i].records.size(), 10u) << "batch " << i;
  const auto s = lis.stats();
  EXPECT_GT(s.flushes, 50u);  // FOF would flush 10 times
  EXPECT_EQ(s.records_forwarded, 1000u);
  EXPECT_TRUE(s.conserved());
}

#if PRISM_OBS_ENABLED
TEST(BufferedLis, CaptureTelemetrySettledAtFlushMatchesPerRecordSamples) {
  // The occupancy histogram and core.lis.recorded are updated once per
  // flush (and per drop); at quiescence they hold exactly what one sample
  // per record would have given.
  class NeverFlush final : public FlushPolicy {
   public:
    std::size_t trigger(std::size_t capacity) const override {
      return capacity + 1;
    }
    std::string_view name() const override { return "never"; }
  };
  auto& reg = ::prism::obs::Registry::instance();
  auto& hist = reg.histogram("core.lis.buffer_occupancy_pct",
                             ::prism::obs::Histogram::percent_bounds());
  const auto buckets_before = hist.bucket_counts();
  const std::uint64_t recorded_before = obs_count("core.lis.recorded");
  ::prism::obs::Histogram expected(::prism::obs::Histogram::percent_bounds());
  DataLink link(16);
  {
    BufferedLis fof(0, 8, std::make_unique<FlushOnFill>(), link);
    for (std::uint64_t i = 0; i < 20; ++i) {
      fof.record(rec(0, 0, i));
      expected.record(100.0 * static_cast<double>(i % 8 + 1) / 8.0);
    }
    fof.stop();
  }
  {
    BufferedLis never(1, 3, std::make_unique<NeverFlush>(), link);
    for (std::uint64_t i = 0; i < 5; ++i) {
      never.record(rec(1, 0, i));
      expected.record(100.0 * static_cast<double>(std::min<std::uint64_t>(
                                  i + 1, 3)) /
                      3.0);
    }
    never.stop();
  }
  const auto buckets_after = hist.bucket_counts();
  const auto want = expected.bucket_counts();
  ASSERT_EQ(buckets_after.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(buckets_after[i] - buckets_before[i], want[i]) << "bucket " << i;
  EXPECT_EQ(obs_count("core.lis.recorded") - recorded_before, 20u + 3u);
}
#endif

// ---- ForwardingLis --------------------------------------------------------------

TEST(ForwardingLis, OneBatchPerEvent) {
  DataLink link(16);
  ForwardingLis lis(2, link);
  lis.record(rec(2, 0, 0));
  lis.record(rec(2, 0, 1));
  auto batches = drain(link);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].records.size(), 1u);
  EXPECT_EQ(batches[1].records.size(), 1u);
  EXPECT_EQ(lis.stats().records_forwarded, 2u);
}

TEST(ForwardingLis, StopSilences) {
  DataLink link(16);
  ForwardingLis lis(0, link);
  lis.stop();
  lis.record(rec());
  EXPECT_TRUE(drain(link).empty());
  EXPECT_EQ(lis.stats().recorded, 0u);
}

// ---- DaemonLis ------------------------------------------------------------------

TEST(DaemonLis, SamplesPipesAndForwards) {
  DataLink link(1024);
  DaemonLis lis(0, /*n_processes=*/2, /*pipe_capacity=*/64,
                /*sampling_period_ns=*/1'000'000, link);
  for (std::uint64_t i = 0; i < 10; ++i) {
    lis.record(rec(0, 0, i));
    lis.record(rec(0, 1, i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lis.stop();
  auto batches = drain(link);
  std::size_t total = 0;
  for (auto& b : batches) total += b.records.size();
  EXPECT_EQ(total, 20u);
  EXPECT_EQ(lis.stats().recorded, 20u);
  EXPECT_GT(lis.daemon_busy_ns(), 0u);
}

TEST(DaemonLis, RejectsUnknownProcess) {
  DataLink link(16);
  DaemonLis lis(0, 1, 8, 1'000'000, link);
  EXPECT_THROW(lis.record(rec(0, 5, 0)), std::out_of_range);
  lis.stop();
}

TEST(DaemonLis, NonBlockingModeDropsOnFullPipe) {
  DataLink link(16);
#if PRISM_OBS_ENABLED
  const std::uint64_t dropped_before = obs_count("core.lis.dropped");
#endif
  DaemonLis lis(0, 1, /*pipe_capacity=*/4, /*period=*/500'000'000, link,
                nullptr, /*block=*/false);
  for (std::uint64_t i = 0; i < 10; ++i) lis.record(rec(0, 0, i));
  const auto s = lis.stats();
  EXPECT_EQ(s.recorded + s.dropped, 10u);
  EXPECT_GE(s.dropped, 6u);  // capacity 4 and a sleepy daemon
#if PRISM_OBS_ENABLED
  EXPECT_GE(obs_count("core.lis.dropped") - dropped_before, 6u);
#endif
  lis.stop();
}

TEST(DaemonLis, ControlPlaneAdjustsSamplingPeriod) {
  DataLink link(64);
  ControlLink control(8);
  DaemonLis lis(0, 1, 64, /*period=*/1'000'000, link, &control);
  control.push(
      ControlMessage{ControlKind::kSetSamplingPeriod, 0, 5'000'000.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(lis.sampling_period_ns(), 5'000'000u);
  lis.stop();
}

TEST(DaemonLis, ShutdownControlStopsDaemon) {
  DataLink link(64);
  ControlLink control(8);
  DaemonLis lis(0, 1, 64, /*period=*/1'000'000, link, &control);
  control.push(ControlMessage{ControlKind::kShutdown, 0, 0});
  // The daemon notices the shutdown within a few wakeups and exits; stop()
  // then joins without hanging.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lis.stop();
  SUCCEED();
}

TEST(DaemonLis, StopIsIdempotent) {
  DataLink link(16);
  DaemonLis lis(0, 1, 8, 1'000'000, link);
  lis.stop();
  lis.stop();
  SUCCEED();
}

TEST(DaemonLis, RejectsBadConstruction) {
  DataLink link(16);
  EXPECT_THROW(DaemonLis(0, 0, 8, 1000, link), std::invalid_argument);
  EXPECT_THROW(DaemonLis(0, 1, 8, 0, link), std::invalid_argument);
}

// ---- Record conservation (DESIGN.md §9) -----------------------------------
//
// records_in == records_forwarded + dropped + buffered, exact at quiescence:
// every record the application offered is accounted for by name.

TEST(LisConservation, BufferedHoldsThenForwards) {
  DataLink link(16);
  BufferedLis lis(0, 8, std::make_unique<FlushOnFill>(), link);
  lis.record(rec(0, 0, 0));
  lis.record(rec(0, 0, 1));
  auto s = lis.stats();
  EXPECT_EQ(s.buffered, 2u);
  EXPECT_TRUE(s.conserved());  // held locally, not yet forwarded
  lis.flush();
  s = lis.stats();
  EXPECT_EQ(s.buffered, 0u);
  EXPECT_EQ(s.records_forwarded, 2u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, BufferedCountsDropsAsLosses) {
  class NeverFlush final : public FlushPolicy {
   public:
    std::size_t trigger(std::size_t capacity) const override {
      return capacity + 1;
    }
    std::string_view name() const override { return "never"; }
  };
  DataLink link(16);
  BufferedLis lis(0, 2, std::make_unique<NeverFlush>(), link);
  for (std::uint64_t i = 0; i < 5; ++i) lis.record(rec(0, 0, i));
  const auto s = lis.stats();
  EXPECT_EQ(s.records_in(), 5u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_EQ(s.buffered, 2u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, ForwardingNeverBuffers) {
  DataLink link(16);
  ForwardingLis lis(0, link);
  for (std::uint64_t i = 0; i < 4; ++i) lis.record(rec(0, 0, i));
  const auto s = lis.stats();
  EXPECT_EQ(s.buffered, 0u);
  EXPECT_EQ(s.records_forwarded, 4u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, DaemonExactAfterStop) {
  DataLink link(1024);
  DaemonLis lis(0, 2, 64, /*sampling_period_ns=*/1'000'000, link);
  for (std::uint64_t i = 0; i < 25; ++i) lis.record(rec(0, i % 2, i));
  lis.stop();  // drains the pipes
  const auto s = lis.stats();
  EXPECT_EQ(s.records_in(), 25u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, ForwardingClosedLinkNoDoubleCount) {
  // Regression: record() into a closed link used to bump `recorded` up
  // front AND `dropped` on the failed push, so records_in() double-counted
  // and conserved() failed.
  DataLink link(4);
  link.close();
  ForwardingLis lis(0, link);
  for (std::uint64_t i = 0; i < 3; ++i) lis.record(rec(0, 0, i));
  const auto s = lis.stats();
  EXPECT_EQ(s.recorded, 0u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_EQ(s.records_forwarded, 0u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, BufferedClosedLinkAttributesLostSend) {
  // The other half of the same fix: a flush into a closed link destroys the
  // batch — that is a lost_send, not a phantom successful flush.
  DataLink link(4);
  link.close();
  BufferedLis lis(0, 2, std::make_unique<FlushOnFill>(), link);
  lis.record(rec(0, 0, 0));
  lis.record(rec(0, 0, 1));  // fills -> flush into the closed link
  const auto s = lis.stats();
  EXPECT_EQ(s.recorded, 2u);
  EXPECT_EQ(s.lost_send, 2u);
  EXPECT_EQ(s.records_forwarded, 0u);
  EXPECT_TRUE(s.conserved());
}

TEST(LisConservation, DaemonDropsStayAccounted) {
  DataLink link(16);
  DaemonLis lis(0, 1, /*pipe_capacity=*/4, /*period=*/500'000'000, link,
                nullptr, /*block=*/false);
  for (std::uint64_t i = 0; i < 10; ++i) lis.record(rec(0, 0, i));
  lis.stop();
  const auto s = lis.stats();
  EXPECT_EQ(s.records_in(), 10u);
  EXPECT_GE(s.dropped, 6u);
  EXPECT_TRUE(s.conserved());
}

}  // namespace
}  // namespace prism::core
