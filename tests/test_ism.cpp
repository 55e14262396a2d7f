// The ISM: SISO and MISO input handling, causal ordering on/off, storage
// tier, latency accounting, and clean shutdown draining.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "core/clock.hpp"
#include "core/ism.hpp"
#include "trace/causal.hpp"

namespace prism::core {
namespace {

namespace fs = std::filesystem;

trace::EventRecord rec(std::uint32_t node, std::uint64_t seq,
                       trace::EventKind kind = trace::EventKind::kUserEvent,
                       std::uint32_t peer = 0, std::uint16_t tag = 0) {
  trace::EventRecord r;
  r.timestamp = now_ns();
  r.node = node;
  r.seq = seq;
  r.kind = kind;
  r.peer = peer;
  r.tag = tag;
  return r;
}

class RecordingTool final : public Tool {
 public:
  std::string_view name() const override { return "recording"; }
  void consume(const trace::EventRecord& r) override {
    std::lock_guard lk(mu_);
    records_.push_back(r);
  }
  std::vector<trace::EventRecord> records() const {
    std::lock_guard lk(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<trace::EventRecord> records_;
};

DataBatch batch_of(std::uint32_t node,
                   std::vector<trace::EventRecord> records) {
  DataBatch b;
  b.source_node = node;
  b.t_sent_ns = now_ns();
  b.records = std::move(records);
  return b;
}

TEST(Ism, SisoDispatchesEverythingInOrder) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.input = InputConfig::kSiso;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  tp.data_link(0).push(batch_of(0, {rec(0, 0), rec(0, 1)}));
  tp.data_link(0).push(batch_of(1, {rec(1, 0)}));
  ism.stop();
  const auto out = tool->records();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_LT(trace::first_causal_violation(out), 0);
  const auto s = ism.stats();
  EXPECT_EQ(s.batches_received, 2u);
  EXPECT_EQ(s.records_received, 3u);
  EXPECT_EQ(s.records_dispatched, 3u);
  EXPECT_EQ(s.processing_latency_ns.count(), 3u);
  EXPECT_TRUE(s.conserved());
}

TEST(Ism, MisoConsumesAllLinks) {
  TransferProtocol tp(TpFlavor::kPipe, 3, 3, 64);
  IsmConfig cfg;
  cfg.input = InputConfig::kMiso;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  for (std::uint32_t n = 0; n < 3; ++n)
    tp.data_link_for(n).push(batch_of(n, {rec(n, 0), rec(n, 1)}));
  ism.stop();
  EXPECT_EQ(tool->records().size(), 6u);
}

TEST(Ism, CausalOrderingReordersAcrossBatches) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = true;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  // The recv arrives before its matching send (different batches).
  tp.data_link(0).push(
      batch_of(1, {rec(1, 0, trace::EventKind::kRecv, 0, 5)}));
  tp.data_link(0).push(
      batch_of(0, {rec(0, 0, trace::EventKind::kSend, 1, 5)}));
  ism.stop();
  const auto out = tool->records();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, trace::EventKind::kSend);
  EXPECT_EQ(out[1].kind, trace::EventKind::kRecv);
  EXPECT_GT(ism.stats().held_back, 0u);
  EXPECT_GT(ism.stats().hold_back_ratio, 0.0);
  EXPECT_TRUE(ism.stats().conserved());
  // Lamport stamps assigned in release order.
  EXPECT_LT(out[0].lamport, out[1].lamport);
}

TEST(Ism, OrderingDisabledPreservesArrivalOrder) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  tp.data_link(0).push(
      batch_of(1, {rec(1, 5, trace::EventKind::kRecv, 0, 5)}));
  ism.stop();
  ASSERT_EQ(tool->records().size(), 1u);  // dispatched despite no send
  EXPECT_EQ(tool->records()[0].lamport, 1u);
}

TEST(Ism, StorageTierWritesTraceFile) {
  const auto path = fs::temp_directory_path() / "prism_ism_storage.trc";
  {
    TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
    IsmConfig cfg;
    cfg.storage_path = path;
    Ism ism(tp, cfg);
    ism.start();
    tp.data_link(0).push(batch_of(0, {rec(0, 0), rec(0, 1), rec(0, 2)}));
    ism.stop();
    EXPECT_EQ(ism.stats().records_stored, 3u);
  }
  trace::TraceFileReader r(path);
  EXPECT_EQ(r.record_count(), 3u);
  fs::remove(path);
}

TEST(Ism, ControlMessagesIgnoredOnDataPlane) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
  Ism ism(tp, IsmConfig{});
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  tp.data_link(0).push(Message(ControlMessage{ControlKind::kStart, 0, 0}));
  tp.data_link(0).push(batch_of(0, {rec(0, 0)}));
  ism.stop();
  EXPECT_EQ(tool->records().size(), 1u);
}

TEST(Ism, BroadcastControlReachesLinks) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  Ism ism(tp, IsmConfig{});
  ism.broadcast_control(ControlMessage{ControlKind::kStop, 0, 0});
  EXPECT_TRUE(tp.control_link(0).try_pop().has_value());
  EXPECT_TRUE(tp.control_link(1).try_pop().has_value());
}

TEST(Ism, MismatchedConfigRejected) {
  TransferProtocol siso_tp(TpFlavor::kPipe, 3, 1, 64);
  IsmConfig miso_cfg;
  miso_cfg.input = InputConfig::kMiso;
  EXPECT_THROW(Ism(siso_tp, miso_cfg), std::invalid_argument);

  TransferProtocol miso_tp(TpFlavor::kPipe, 3, 3, 64);
  IsmConfig siso_cfg;
  siso_cfg.input = InputConfig::kSiso;
  EXPECT_THROW(Ism(miso_tp, siso_cfg), std::invalid_argument);
}

TEST(Ism, AttachToolAfterStartRejected) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
  Ism ism(tp, IsmConfig{});
  ism.start();
  EXPECT_THROW(ism.attach_tool(std::make_shared<RecordingTool>()),
               std::logic_error);
  ism.stop();
}

TEST(Ism, StopIsIdempotentAndDestructorSafe) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
  auto ism = std::make_unique<Ism>(tp, IsmConfig{});
  ism->start();
  ism->stop();
  ism->stop();
  ism.reset();  // destructor after stop
  SUCCEED();
}

TEST(Ism, TinyOutputBufferBackpressureStillConserves) {
  // Output capacity 1: the dispatcher is the bottleneck; the processor
  // blocks pushing into the output buffer, but nothing is lost.
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = false;
  cfg.output_capacity = 1;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  for (int b = 0; b < 20; ++b) {
    std::vector<trace::EventRecord> recs;
    for (int i = 0; i < 10; ++i)
      recs.push_back(rec(0, static_cast<std::uint64_t>(b * 10 + i)));
    tp.data_link(0).push(batch_of(0, std::move(recs)));
  }
  ism.stop();
  EXPECT_EQ(tool->records().size(), 200u);
  EXPECT_EQ(ism.stats().records_dispatched, 200u);
  EXPECT_TRUE(ism.stats().conserved());
}

TEST(Ism, P95LatencyReported) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(tp, cfg);
  ism.attach_tool(std::make_shared<RecordingTool>());
  ism.start();
  std::vector<trace::EventRecord> recs;
  for (int i = 0; i < 50; ++i) recs.push_back(rec(0, i));
  tp.data_link(0).push(batch_of(0, std::move(recs)));
  ism.stop();
  const auto s = ism.stats();
  EXPECT_GT(s.processing_latency_p95_ns, 0.0);
  EXPECT_GE(s.processing_latency_p95_ns,
            s.processing_latency_ns.mean() * 0.5);
}

TEST(Ism, HighVolumeThroughSisoConserved) {
  TransferProtocol tp(TpFlavor::kPipe, 4, 1, 256);
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    for (int b = 0; b < 50; ++b) {
      std::vector<trace::EventRecord> recs;
      for (int i = 0; i < 20; ++i)
        recs.push_back(rec(n, static_cast<std::uint64_t>(b * 20 + i)));
      total += recs.size();
      tp.data_link_for(n).push(batch_of(n, std::move(recs)));
    }
  }
  ism.stop();
  EXPECT_EQ(tool->records().size(), total);
  EXPECT_EQ(ism.stats().records_dispatched, total);
  EXPECT_TRUE(ism.stats().conserved());
}

TEST(Ism, UnresolvableHoldBackResidueStaysAccounted) {
  // A recv whose matching send never arrives is causally unresolvable: it
  // stays held at stop, and conservation counts it via still_held —
  // records_received == dispatched + still_held + in_output.
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = true;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  tp.data_link(0).push(
      batch_of(1, {rec(1, 0, trace::EventKind::kRecv, 0, 9)}));
  tp.data_link(0).push(batch_of(0, {rec(0, 0)}));
  ism.stop();
  const auto s = ism.stats();
  EXPECT_EQ(s.records_received, 2u);
  EXPECT_EQ(s.records_dispatched, 1u);  // the plain record
  EXPECT_EQ(s.still_held, 1u);          // the orphaned recv
  EXPECT_TRUE(s.conserved());
}

// A tool that blocks every consume() until released.
class LatchedTool final : public Tool {
 public:
  std::string_view name() const override { return "latched"; }
  void consume(const trace::EventRecord& r) override {
    std::unique_lock lk(mu_);
    open_cv_.wait(lk, [&] { return open_; });
    records_.push_back(r);
  }
  void open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    open_cv_.notify_all();
  }
  std::vector<trace::EventRecord> records() const {
    std::lock_guard lk(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable open_cv_;
  bool open_ = false;
  std::vector<trace::EventRecord> records_;
};

TEST(Ism, MidRunSnapshotsConserveWhileTheToolBlocks) {
  // The tool blocks on its first record, so the dispatcher holds one run
  // and the processor fills the output buffer and waits.  Every snapshot
  // taken meanwhile must balance, with in_output counted in records.
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = true;
  cfg.output_capacity = 16;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<LatchedTool>();
  ism.attach_tool(tool);
  ism.start();
  std::uint64_t total = 0;
  for (int b = 0; b < 12; ++b) {
    // Each step's recv arrives a batch ahead of its matching send, so the
    // reorderer holds it across batches.
    tp.data_link(0).push(batch_of(
        1, {rec(1, static_cast<std::uint64_t>(b), trace::EventKind::kRecv, 0,
                3)}));
    std::vector<trace::EventRecord> recs;
    for (int i = 0; i < 5; ++i)
      recs.push_back(rec(0, static_cast<std::uint64_t>(b * 6 + i)));
    recs.push_back(rec(0, static_cast<std::uint64_t>(b * 6 + 5),
                       trace::EventKind::kSend, 1, 3));
    tp.data_link(0).push(batch_of(0, std::move(recs)));
    total += 7;
  }
  bool saw_full = false;
  for (int spin = 0; spin < 2000 && !saw_full; ++spin) {
    const auto s = ism.stats();
    ASSERT_TRUE(s.conserved())
        << "received " << s.records_received << " dispatched "
        << s.records_dispatched << " held " << s.still_held << " out "
        << s.in_output;
    ASSERT_LE(s.in_output, cfg.output_capacity);
    saw_full = s.in_output == cfg.output_capacity;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_full);
  const auto blocked = ism.stats();
  EXPECT_TRUE(blocked.conserved());
  EXPECT_LT(blocked.records_dispatched, total);
  tool->open();
  ism.stop();
  const auto s = ism.stats();
  EXPECT_EQ(s.records_dispatched, total);
  EXPECT_EQ(s.in_output, 0u);
  EXPECT_EQ(s.still_held, 0u);
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(trace::first_causal_violation(tool->records()), -1);
}

TEST(Ism, LateSendReleasingThousandsThroughUnitOutputBuffer) {
  // Node 1's 1000 recvs and node 0's sends 1..999 all wait on node 0's
  // seq 0.  That one late send releases 2000 records in one offer; with
  // an output buffer of one record the run is handed off a record at a
  // time, and nothing deadlocks or goes missing.
  constexpr std::uint64_t kMsgs = 1000;
  TransferProtocol tp(TpFlavor::kPipe, 2, 2, 64);
  IsmConfig cfg;
  cfg.input = InputConfig::kMiso;
  cfg.causal_ordering = true;
  cfg.output_capacity = 1;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<RecordingTool>();
  ism.attach_tool(tool);
  ism.start();
  std::vector<trace::EventRecord> recvs, sends;
  for (std::uint64_t i = 0; i < kMsgs; ++i)
    recvs.push_back(rec(1, i, trace::EventKind::kRecv, 0, 5));
  for (std::uint64_t i = 1; i < kMsgs; ++i)
    sends.push_back(rec(0, i, trace::EventKind::kSend, 1, 5));
  tp.data_link_for(1).push(batch_of(1, std::move(recvs)));
  tp.data_link_for(0).push(batch_of(0, std::move(sends)));
  // Wait until both batches are held, so the late send releases them all.
  for (int spin = 0; spin < 5000; ++spin) {
    if (ism.stats().records_received == 2 * kMsgs - 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ism.stats().still_held, 2 * kMsgs - 1);
  tp.data_link_for(0).push(
      batch_of(0, {rec(0, 0, trace::EventKind::kSend, 1, 5)}));
  ism.stop();
  const auto s = ism.stats();
  EXPECT_EQ(s.records_dispatched, 2 * kMsgs);
  EXPECT_EQ(s.still_held, 0u);
  EXPECT_TRUE(s.conserved());
  const auto out = tool->records();
  ASSERT_EQ(out.size(), 2 * kMsgs);
  EXPECT_EQ(trace::first_causal_violation(out), -1);
}

TEST(Ism, HeldRecordLatencyRunsFromItsOwnBatch) {
  // A recv held across batches is measured from its own batch's send time,
  // not from the batch whose send released it: both are published at the
  // same instant, so their latencies differ by the gap between the sends.
  constexpr std::uint64_t kGapNs = 200'000'000;
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 64);
  IsmConfig cfg;
  cfg.causal_ordering = true;
  Ism ism(tp, cfg);
  ism.attach_tool(std::make_shared<RecordingTool>());
  ism.start();
  const auto early = batch_of(1, {rec(1, 0, trace::EventKind::kRecv, 0, 2)});
  const std::uint64_t t_early = early.t_sent_ns;
  tp.data_link(0).push(early);
  while (now_ns() < t_early + kGapNs)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  tp.data_link(0).push(
      batch_of(0, {rec(0, 0, trace::EventKind::kSend, 1, 2)}));
  ism.stop();
  const auto s = ism.stats();
  ASSERT_EQ(s.processing_latency_ns.count(), 2u);
  EXPECT_GE(s.processing_latency_ns.max() - s.processing_latency_ns.min(),
            static_cast<double>(kGapNs));
}

}  // namespace
}  // namespace prism::core
