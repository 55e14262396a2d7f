// The framed-link contract, run once per byte path: every test here holds
// for the fd stream (`tp = socket`) and the shm ring (`tp = shm`) alike,
// because both are the same engine (core/framed_link.hpp).  EOF handling,
// send-after-close attribution, untrusted-header rejection, truncation,
// partial frames, send-fault retry, the undelivered-frame reconcile, and
// the integrated-environment ledger.  Byte-path-specific behaviour
// (coalescing, TCP, ring capacity and wrap, fork) stays in
// test_socket_link.cpp / test_shm_link.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "core/clock.hpp"
#include "core/environment.hpp"
#include "core/shm_link.hpp"
#include "core/socket_link.hpp"
#include "fault/fault.hpp"
#include "obs/pipeline.hpp"

// The byte paths the contract runs over.  Declared at global scope so the
// test names read FramedLinkContract.<Test><OverSocket> / <OverShm>.
struct OverSocket {
  using Options = prism::core::SocketOptions;
  static constexpr auto kFlavor = prism::core::TpFlavor::kSocket;
  static constexpr auto kSendSite = prism::fault::FaultSite::kSocketSend;
  static constexpr auto kFrameSite = prism::fault::FaultSite::kSocketFrame;
  static void enable(prism::core::TransferProtocol& tp, const Options& o) {
    tp.enable_socket_backend(o);
  }
  static bool enabled(prism::core::TransferProtocol& tp) {
    return tp.socket_backend_enabled();
  }
  static auto& link(prism::core::TransferProtocol& tp) {
    return tp.socket_link(0);
  }
};

struct OverShm {
  using Options = prism::core::ShmOptions;
  static constexpr auto kFlavor = prism::core::TpFlavor::kShm;
  static constexpr auto kSendSite = prism::fault::FaultSite::kShmPush;
  static constexpr auto kFrameSite = prism::fault::FaultSite::kShmFrame;
  static void enable(prism::core::TransferProtocol& tp, const Options& o) {
    tp.enable_shm_backend(o);
  }
  static bool enabled(prism::core::TransferProtocol& tp) {
    return tp.shm_backend_enabled();
  }
  static auto& link(prism::core::TransferProtocol& tp) {
    return tp.shm_link(0);
  }
};

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
/// asynchronously, so wire-side counters need a grace period.
bool eventually(const std::function<bool()>& f) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (f()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return f();
}

/// Registers every record of `b` with the observer's lineage.
void offer(obs::PipelineObserver& obs, const DataBatch& b) {
  for (const auto& r : b.records)
    obs.lineage.offer(obs::lineage_key(r.node, r.process, r.seq),
                      static_cast<double>(now_ns()));
}

/// Byte-level mirror of the wire header for hand-crafting bad frames.
struct WireHeader {
  std::uint32_t magic;
  std::uint32_t source_node;
  std::uint64_t t_sent_ns;
  std::uint64_t record_count;
};
static_assert(sizeof(WireHeader) == 24, "wire format");

/// A TransferProtocol with the byte path `P` enabled on one data link — the
/// harness the tests push batches into and pop frames out of.
template <class P>
struct Harness {
  explicit Harness(typename P::Options opts = {})
      : tp(P::kFlavor, 1, 1, 256) {
    P::enable(tp, opts);
  }
  auto& link() { return P::link(tp); }
  TransferProtocol tp;
};

template <class P>
class FramedLinkContract : public ::testing::Test {};

using Paths = ::testing::Types<OverSocket, OverShm>;
TYPED_TEST_SUITE(FramedLinkContract, Paths);

// ---- EOF and teardown ---------------------------------------------------------

TYPED_TEST(FramedLinkContract, CloseWriterDeliversThenCleanEof) {
  Harness<TypeParam> h;
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 2, i * 2))));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.tp.receive_link(0).pop());
  h.link().close_writer();
  // EOF lands at a frame boundary: the egress closes with nothing lost.
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  EXPECT_FALSE(h.link().stream_corrupt());
  EXPECT_EQ(h.link().frames_undelivered(), 0u);
  EXPECT_EQ(h.link().records_lost(), 0u);
}

TYPED_TEST(FramedLinkContract, SendAfterWriterCloseIsAccountedLost) {
  Harness<TypeParam> h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  h.link().close_writer();
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());  // EOF
  // The ingress link is still open; the pump keeps draining it and must
  // attribute each post-close batch instead of silently eating it.
  auto b = batch(0, 3, 0);
  offer(obs, b);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  ASSERT_TRUE(eventually([&] { return h.link().records_lost() == 3; }));
  const auto rep = obs.lineage.report();
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kTpSendFailed)], 3u);
  EXPECT_EQ(rep.in_flight, 0u);
}

// ---- Untrusted headers --------------------------------------------------------

TYPED_TEST(FramedLinkContract, BadMagicCorruptsStreamAfterGoodFrames) {
  Harness<TypeParam> h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 2, 0))));
  ASSERT_TRUE(h.tp.receive_link(0).pop());  // good frame delivered first
  WireHeader bad{0xDEADBEEF, 0, 0, 1};
  ASSERT_TRUE(h.link().inject_raw(&bad, sizeof bad));
  // The reader rejects the header, latches corruption, and closes egress.
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  EXPECT_TRUE(h.link().stream_corrupt());
  EXPECT_EQ(h.link().frames_corrupt(), 1u);
  EXPECT_EQ(h.link().frames_delivered(), 1u);
  EXPECT_EQ(h.link().frames_undelivered(), 0u);
}

TYPED_TEST(FramedLinkContract, OversizedRecordCountRejectedBeforeAllocation) {
  typename TypeParam::Options opts;
  opts.max_frame_records = 64;
  Harness<TypeParam> h(opts);
  // Header is well-formed but claims an insane payload; the reader must
  // refuse it from the untrusted count alone, not trust-and-allocate.
  WireHeader bomb{kFrameMagic, 0, 0, 1ull << 60};
  ASSERT_TRUE(h.link().inject_raw(&bomb, sizeof bomb));
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  EXPECT_TRUE(h.link().stream_corrupt());
  EXPECT_EQ(h.link().frames_corrupt(), 1u);
}

TYPED_TEST(FramedLinkContract, BoundaryRecordCountStillAccepted) {
  typename TypeParam::Options opts;
  opts.max_frame_records = 4;
  Harness<TypeParam> h(opts);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 4))));  // at the bound
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records.size(), 4u);
  EXPECT_FALSE(h.link().stream_corrupt());
}

TYPED_TEST(FramedLinkContract, TruncatedPayloadIsCorruptNotCleanEof) {
  Harness<TypeParam> h;
  WireHeader hdr{kFrameMagic, 0, 0, 10};  // promises 10 records...
  ASSERT_TRUE(h.link().inject_raw(&hdr, sizeof hdr));
  h.link().close_writer();  // ...then EOF mid-payload
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  EXPECT_TRUE(h.link().stream_corrupt());
  EXPECT_EQ(h.link().frames_corrupt(), 1u);
}

TYPED_TEST(FramedLinkContract, ReaderDeathAttributesBufferedFrames) {
  // A corrupt stream strands any frame still on the byte path (kernel
  // buffer or ring).  Write a good frame immediately followed by garbage:
  // the reader may deliver the good frame or die before parsing it, but the
  // ledger must account every record either as delivered or as lost —
  // never silently vanished.
  Harness<TypeParam> h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  auto b = batch(0, 4, 0);
  offer(obs, b);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  WireHeader bad{0x0BADF00D, 0, 0, 1};
  ASSERT_TRUE(h.link().inject_raw(&bad, sizeof bad));
  std::size_t delivered_records = 0;
  while (auto msg = h.tp.receive_link(0).pop())
    delivered_records += std::get_if<DataBatch>(&*msg)->records.size();
  // The egress closing proves the *reader* is done, not the pump: when the
  // injected garbage outruns the queued batch, the pump may still be
  // attributing a failed send.  Quiesce so the writer ledger is final too.
  h.tp.close_data_links();
  auto& link = h.link();
  EXPECT_TRUE(link.stream_corrupt());
  EXPECT_EQ(delivered_records + link.records_lost(), 4u);
  // Lineage closes the same identity: records that crossed sit in-flight in
  // the egress (nothing completes them here), the rest are attributed lost.
  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.in_flight, delivered_records);
  EXPECT_EQ(rep.lost, 4u - delivered_records);
}

// ---- Fault injection ----------------------------------------------------------

TYPED_TEST(FramedLinkContract, TransientSendFailureRetriesAndDelivers) {
  Harness<TypeParam> h;
  fault::FaultPlan p;
  fault::FaultSpec s;
  s.site = TypeParam::kSendSite;
  s.kind = fault::FaultKind::kSendFail;
  s.at_op = 1;  // only the first attempt fails
  p.add(s);
  fault::FaultInjector inj(p, 11);
  fault::RetryPolicy rp;
  rp.base_backoff_ns = 100;
  h.tp.set_fault(&inj, rp);

  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 3, 0))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records.size(), 3u);
  EXPECT_EQ(h.link().send_failures(), 1u);
  EXPECT_EQ(h.link().records_lost(), 0u);
}

TYPED_TEST(FramedLinkContract, PartialFrameDesynchronizesAndAborts) {
  Harness<TypeParam> h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  fault::FaultPlan p;
  p.partial_frame(2, fault::kAnyNode, TypeParam::kFrameSite);
  fault::FaultInjector inj(p, 13);
  h.tp.set_fault(&inj);

  for (std::uint64_t i = 0; i < 2; ++i) {
    auto b = batch(0, 2, i * 2);
    offer(obs, b);
    ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  }
  // Frame 1 went out whole (flushed before the injected mid-frame death);
  // frame 2 dies halfway onto the byte path.
  std::size_t delivered_records = 0;
  while (auto msg = h.tp.receive_link(0).pop())
    delivered_records += std::get_if<DataBatch>(&*msg)->records.size();
  auto& link = h.link();
  EXPECT_TRUE(link.stream_corrupt());
  EXPECT_EQ(link.frames_aborted(), 1u);
  EXPECT_EQ(delivered_records, 2u);  // frame 1 was on the byte path whole
  EXPECT_EQ(link.records_lost(), 2u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.in_flight, 2u);  // delivered into egress, nothing completes
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kFrameCorrupt)], 2u);
}

// ---- Integrated environment ---------------------------------------------------

TYPED_TEST(FramedLinkContract, EnvironmentLedgerIsExactOverTheWire) {
  core::EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.tp_flavor = TypeParam::kFlavor;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = true;
  IntegratedEnvironment env(cfg);
  ASSERT_TRUE(TypeParam::enabled(env.tp()));
  auto tool = std::make_shared<StatsTool>();
  env.attach_tool(tool);
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  env.start();
  for (std::uint64_t i = 0; i < 400; ++i)
    env.record(ev(static_cast<std::uint32_t>(i % 2), i / 2));
  env.stop();

  EXPECT_EQ(tool->total(), 400u);
  EXPECT_FALSE(env.degradation().degraded());
  EXPECT_EQ(env.degradation().records_lost_wire, 0u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.admitted, 400u);
  EXPECT_EQ(rep.completed, 400u);
  EXPECT_EQ(rep.in_flight, 0u);
}

}  // namespace
}  // namespace prism::core
