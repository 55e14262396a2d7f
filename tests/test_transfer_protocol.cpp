// Transfer protocol wiring: SISO/MISO link layouts, routing, broadcast,
// shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/transfer_protocol.hpp"
#include "fault/fault.hpp"

namespace prism::core {
namespace {

TEST(TransferProtocol, SisoSharesOneDataLink) {
  TransferProtocol tp(TpFlavor::kPipe, 4, 1, 16);
  EXPECT_EQ(tp.data_link_count(), 1u);
  EXPECT_EQ(&tp.data_link_for(0), &tp.data_link_for(3));
}

TEST(TransferProtocol, MisoGivesEachNodeItsOwnLink) {
  TransferProtocol tp(TpFlavor::kSocket, 4, 4, 16);
  EXPECT_EQ(tp.data_link_count(), 4u);
  EXPECT_NE(&tp.data_link_for(0), &tp.data_link_for(1));
  EXPECT_EQ(&tp.data_link_for(2), &tp.data_link(2));
}

TEST(TransferProtocol, RejectsInvalidLayouts) {
  EXPECT_THROW(TransferProtocol(TpFlavor::kPipe, 0, 1, 16),
               std::invalid_argument);
  EXPECT_THROW(TransferProtocol(TpFlavor::kPipe, 4, 2, 16),
               std::invalid_argument);
  EXPECT_THROW(TransferProtocol(TpFlavor::kPipe, 4, 0, 16),
               std::invalid_argument);
}

TEST(TransferProtocol, RejectsBadNodeLookup) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 16);
  EXPECT_THROW(tp.data_link_for(2), std::out_of_range);
  EXPECT_THROW(tp.control_link(2), std::out_of_range);
}

TEST(TransferProtocol, DataBatchRoundTrip) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 16);
  DataBatch b;
  b.source_node = 1;
  b.t_sent_ns = 12345;
  trace::EventRecord r;
  r.timestamp = 7;
  b.records.push_back(r);
  tp.data_link_for(1).push(Message(std::move(b)));
  auto msg = tp.data_link(0).try_pop();
  ASSERT_TRUE(msg.has_value());
  auto* batch = std::get_if<DataBatch>(&*msg);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->source_node, 1u);
  EXPECT_EQ(batch->records.size(), 1u);
  EXPECT_EQ(batch->records[0].timestamp, 7u);
}

TEST(TransferProtocol, BroadcastReachesEveryNodeWithItsId) {
  TransferProtocol tp(TpFlavor::kPipe, 3, 1, 16);
  tp.broadcast(ControlMessage{ControlKind::kFlushAll, 0, 0.0});
  for (std::uint32_t n = 0; n < 3; ++n) {
    auto m = tp.control_link(n).try_pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->kind, ControlKind::kFlushAll);
    EXPECT_EQ(m->target_node, n);
  }
}

TEST(TransferProtocol, CloseAllEofsEverything) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 2, 16);
  tp.close_all();
  EXPECT_FALSE(tp.data_link(0).pop().has_value());
  EXPECT_FALSE(tp.data_link(1).pop().has_value());
  EXPECT_FALSE(tp.control_link(0).pop().has_value());
}

TEST(TransferProtocol, NamesForDisplay) {
  EXPECT_EQ(to_string(TpFlavor::kPipe), "pipe");
  EXPECT_EQ(to_string(TpFlavor::kSocket), "socket");
  EXPECT_EQ(to_string(TpFlavor::kShm), "shm");
  EXPECT_EQ(to_string(ControlKind::kFlushAll), "flush_all");
  EXPECT_EQ(to_string(ControlKind::kSetSamplingPeriod),
            "set_sampling_period");
}

// ---- Reliable control path ----------------------------------------------------

TEST(ControlPlane, LifecycleCriticalKindsAreExactlyShutdownFlushAllStop) {
  EXPECT_TRUE(lifecycle_critical(ControlKind::kShutdown));
  EXPECT_TRUE(lifecycle_critical(ControlKind::kFlushAll));
  EXPECT_TRUE(lifecycle_critical(ControlKind::kStop));
  EXPECT_FALSE(lifecycle_critical(ControlKind::kStart));
  EXPECT_FALSE(lifecycle_critical(ControlKind::kSetSamplingPeriod));
  EXPECT_FALSE(lifecycle_critical(ControlKind::kEnableInstrumentation));
  EXPECT_FALSE(lifecycle_critical(ControlKind::kDisableInstrumentation));
}

TEST(ControlPlane, CriticalBroadcastBlocksUntilConsumerDrains) {
  // Regression: kShutdown on a full link used to be a silent try_push drop —
  // the receiver's threads leaked.  Now it blocks (bounded) for the consumer.
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 1);
  ASSERT_TRUE(
      tp.control_link(0).try_push(ControlMessage{ControlKind::kStart, 0, 0}));
  std::thread consumer([&tp] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    tp.control_link(0).pop();  // frees the slot
  });
  tp.broadcast(ControlMessage{ControlKind::kShutdown, 0, 0});
  consumer.join();
  EXPECT_EQ(tp.control_dropped_total(), 0u);
  auto m = tp.control_link(0).try_pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, ControlKind::kShutdown);
}

TEST(ControlPlane, NonCriticalDropOnFullLinkAttributedPerKind) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 1);
  ASSERT_TRUE(
      tp.control_link(0).try_push(ControlMessage{ControlKind::kStart, 0, 0}));
  tp.broadcast(ControlMessage{ControlKind::kSetSamplingPeriod, 0, 1e6});
  EXPECT_EQ(tp.control_dropped(ControlKind::kSetSamplingPeriod), 1u);
  EXPECT_EQ(tp.control_dropped(ControlKind::kShutdown), 0u);
  EXPECT_EQ(tp.control_dropped_total(), 1u);
}

TEST(ControlPlane, CriticalTimeoutIsAttributedNotSilent) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 1);
  ASSERT_TRUE(
      tp.control_link(0).try_push(ControlMessage{ControlKind::kStart, 0, 0}));
  tp.set_control_send_timeout_ns(1'000'000);  // 1 ms; nobody ever drains
  tp.broadcast(ControlMessage{ControlKind::kShutdown, 0, 0});
  EXPECT_EQ(tp.control_dropped(ControlKind::kShutdown), 1u);
}

TEST(ControlPlane, InjectedFailureRetriedForCriticalKinds) {
  TransferProtocol tp(TpFlavor::kPipe, 2, 1, 16);
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.site = fault::FaultSite::kTpControl;
  s.kind = fault::FaultKind::kSendFail;
  s.at_op = 1;  // first delivery attempt per node fails
  plan.add(s);
  fault::FaultInjector inj(plan, 4);
  fault::RetryPolicy rp;
  rp.base_backoff_ns = 100;
  tp.set_fault(&inj, rp);
  tp.broadcast(ControlMessage{ControlKind::kFlushAll, 0, 0});
  EXPECT_EQ(tp.control_dropped_total(), 0u);
  for (std::uint32_t n = 0; n < 2; ++n) {
    auto m = tp.control_link(n).try_pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->kind, ControlKind::kFlushAll);
  }
}

TEST(ControlPlane, InjectedFailureDropsNonCriticalWithoutRetry) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 16);
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.site = fault::FaultSite::kTpControl;
  s.kind = fault::FaultKind::kSendFail;
  s.every_n = 1;  // every attempt fails
  plan.add(s);
  fault::FaultInjector inj(plan, 4);
  tp.set_fault(&inj);
  tp.broadcast(ControlMessage{ControlKind::kSetSamplingPeriod, 0, 5e5});
  EXPECT_EQ(tp.control_dropped(ControlKind::kSetSamplingPeriod), 1u);
  EXPECT_FALSE(tp.control_link(0).try_pop().has_value());
  // Exactly one consult: non-critical kinds never burn retry budget.
  EXPECT_EQ(inj.stats().consults, 1u);
}

}  // namespace
}  // namespace prism::core
