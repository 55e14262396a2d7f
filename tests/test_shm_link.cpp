// The shared-memory byte path (`tp = shm`): option validation,
// bounded-egress backpressure and ring capacity, batch-storage recycling
// through the BatchArena, and the integrated environment under seeded
// chaos.  The contract every byte path shares (round trips, backend
// selection, retry exhaustion, corrupt magic, ISM and MISO integration,
// ...) lives in test_framed_link.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/clock.hpp"
#include "core/environment.hpp"
#include "core/io_loop.hpp"
#include "core/ism.hpp"
#include "core/shm_link.hpp"
#include "fault/fault.hpp"
#include "obs/pipeline.hpp"

namespace prism::core {
namespace {

trace::EventRecord ev(std::uint32_t node, std::uint64_t seq) {
  trace::EventRecord r;
  r.timestamp = now_ns();
  r.node = node;
  r.seq = seq;
  return r;
}

DataBatch batch(std::uint32_t node, std::size_t count,
                std::uint64_t seq0 = 0) {
  DataBatch b;
  b.source_node = node;
  b.t_sent_ns = now_ns();
  for (std::size_t i = 0; i < count; ++i)
    b.records.push_back(ev(node, seq0 + i));
  return b;
}

/// Polls `f` for up to two seconds — the reader thread delivers
/// asynchronously, so ring-side counters need a grace period.
bool eventually(const std::function<bool()>& f) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (f()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return f();
}

/// A kShm TransferProtocol with the real backend enabled.
struct ShmHarness {
  explicit ShmHarness(std::size_t links = 1, std::size_t capacity = 256,
                      ShmOptions opts = {})
      : tp(TpFlavor::kShm, links, links, capacity) {
    tp.enable_shm_backend(opts);
  }
  TransferProtocol tp;
};

// ---- Backend selection --------------------------------------------------------

TEST(ShmBackend, RejectsUnusableOptions) {
  ShmOptions bad;
  bad.ring_capacity = 100;  // not a power of two
  {
    TransferProtocol tp(TpFlavor::kShm, 1, 1, 16);
    EXPECT_THROW(tp.enable_shm_backend(bad), std::invalid_argument);
  }
  bad.ring_capacity = 64;  // power of two, but < one single-record frame
  {
    TransferProtocol tp(TpFlavor::kShm, 1, 1, 16);
    EXPECT_THROW(tp.enable_shm_backend(bad), std::invalid_argument);
  }
  ShmOptions zero;
  zero.max_frame_records = 0;  // would reject every frame as oversized
  {
    TransferProtocol tp(TpFlavor::kShm, 1, 1, 16);
    EXPECT_THROW(tp.enable_shm_backend(zero), std::invalid_argument);
  }
}

TEST(ShmBackend, FlavorNameRoundTrips) {
  EXPECT_EQ(to_string(TpFlavor::kShm), "shm");
}

// ---- Backpressure -------------------------------------------------------------

TEST(ShmBackpressure, FullRingParksThePumpThenEveryFrameArrives) {
  // A 128-byte ring holds exactly one single-record frame (24 + 48), and
  // the egress holds 4 messages: queue 20 batches with nobody draining and
  // the chain must fill — egress, then ring, then a parked pump — without
  // losing anything once the consumer shows up.
  ShmOptions opts;
  opts.ring_capacity = 128;
  ShmHarness h(1, 4, opts);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 20; ++i)
      ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 1, i))));
  });
  ASSERT_TRUE(eventually([&] { return h.tp.shm_link(0).ring_full_waits() > 0; }));
  for (std::uint64_t i = 0; i < 20; ++i) {
    auto msg = h.tp.receive_link(0).pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, i);
  }
  producer.join();
  EXPECT_EQ(h.tp.shm_link(0).records_lost(), 0u);
}

TEST(ShmBackpressure, FrameLargerThanTheRingIsLostNotWedged) {
  // A frame that can never fit must be attributed and dropped cleanly —
  // parking forever would wedge the pump, corrupting would kill the stream.
  ShmOptions opts;
  opts.ring_capacity = 128;
  ShmHarness h(1, 256, opts);
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  auto big = batch(0, 100, 0);  // 24 + 4800 bytes >> 128
  for (const auto& r : big.records)
    obs.lineage.offer(obs::lineage_key(r.node, r.process, r.seq),
                      static_cast<double>(now_ns()));
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(big))));
  ASSERT_TRUE(
      eventually([&] { return h.tp.shm_link(0).records_lost() == 100; }));
  EXPECT_FALSE(h.tp.shm_link(0).stream_corrupt());
  const auto rep = obs.lineage.report();
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kTpSendFailed)],
      100u);
  // The stream survives: later, sane traffic still flows.
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 1, 500))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, 500u);
}

// ---- Batch-storage recycling --------------------------------------------------

TEST(ShmArena, ReceivePathRecyclesBatchStorageThroughTheArena) {
  // Steady state must not malloc per batch: the reader acquires record
  // storage from the BatchArena and the ISM releases it back.  The arena is
  // process-global, so assert on deltas, not absolutes.  Two waves with a
  // consumption barrier between them: reuse requires a release to land
  // before a later acquire, and on a single core a one-shot burst can
  // legitimately run every reader acquire before the ISM's first release.
  // Once the tool has seen all of wave one, its storage is back in the
  // pool, so wave two's acquires must be served from it.
  const auto before = BatchArena::instance().stats();
  TransferProtocol tp(TpFlavor::kShm, 1, 1, 256);
  tp.enable_shm_backend();
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(tp, cfg);
  auto tool = std::make_shared<StatsTool>();
  ism.attach_tool(tool);
  ism.start();
  for (std::uint64_t i = 0; i < 25; ++i)
    ASSERT_TRUE(tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  while (tool->total() < 100)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::uint64_t i = 25; i < 50; ++i)
    ASSERT_TRUE(tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  ism.stop();
  const auto after = BatchArena::instance().stats();
  EXPECT_GE(after.acquires - before.acquires, 50u);
  EXPECT_GT(after.releases, before.releases);
  EXPECT_GT(after.reuses, before.reuses);
}

// ---- ISM / environment integration --------------------------------------------

TEST(ShmIntegration, ConservationIsExactUnderSeededChaos) {
  // The tentpole invariant: under injected push failures and frame
  // corruption, every admitted record is either completed or attributed
  // lost — admitted == completed + lost + in_flight, exactly.
  core::EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.tp_flavor = TpFlavor::kShm;
  cfg.ism.input = core::InputConfig::kMiso;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<StatsTool>();
  env.attach_tool(tool);
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  fault::FaultPlan plan;
  plan.send_failure(fault::FaultSite::kShmPush, 0.05);
  plan.corrupt_frame(0.01, fault::kAnyNode, fault::FaultSite::kShmFrame);
  fault::FaultInjector inj(plan, 0xC0FFEE);
  fault::RetryPolicy rp;
  rp.max_attempts = 2;
  rp.base_backoff_ns = 100;
  env.set_fault(&inj, rp);
  env.start();
  for (std::uint64_t i = 0; i < 600; ++i)
    env.record(ev(static_cast<std::uint32_t>(i % 2), i / 2));
  env.stop();

  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.admitted, 600u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.lost + rep.in_flight);
  EXPECT_EQ(rep.in_flight, 0u);  // stop() drains or attributes everything
  EXPECT_EQ(rep.completed, tool->total());
  EXPECT_GT(rep.lost, 0u);  // the plan really fired
  EXPECT_EQ(env.degradation().records_lost_wire,
            env.tp().shm_transport()->records_lost_total());
}

}  // namespace
}  // namespace prism::core
