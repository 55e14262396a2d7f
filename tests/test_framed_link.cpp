// The framed-link contract, run once per byte path: every test here holds
// for the fd stream (`tp = socket`) and the shm ring (`tp = shm`) alike,
// because both are the same engine (core/framed_link.hpp).  Backend
// selection, round trips, control bypass, EOF handling, send-after-close
// attribution, untrusted-header rejection, truncation, partial frames,
// send-fault retry and exhaustion, corrupt magic, the undelivered-frame
// reconcile, and the ISM / integrated-environment ledgers.
// Byte-path-specific behaviour (coalescing, TCP, ring capacity and wrap,
// fork) stays in test_socket_link.cpp / test_shm_link.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
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
  static auto* transport(prism::core::TransferProtocol& tp) {
    return tp.socket_transport();
  }
  static auto& link(prism::core::TransferProtocol& tp, std::size_t i = 0) {
    return tp.socket_link(i);
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
  static auto* transport(prism::core::TransferProtocol& tp) {
    return tp.shm_transport();
  }
  static auto& link(prism::core::TransferProtocol& tp, std::size_t i = 0) {
    return tp.shm_link(i);
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

/// A TransferProtocol with the byte path `P` enabled on `links` data links
/// — the harness the tests push batches into and pop frames out of.
template <class P>
struct Harness {
  explicit Harness(typename P::Options opts = {}, std::size_t links = 1,
                   std::size_t capacity = 256)
      : tp(P::kFlavor, links, links, capacity) {
    P::enable(tp, opts);
  }
  auto& link() { return P::link(tp); }
  TransferProtocol tp;
};

template <class P>
class FramedLinkContract : public ::testing::Test {};

using Paths = ::testing::Types<OverSocket, OverShm>;
TYPED_TEST_SUITE(FramedLinkContract, Paths);

// ---- Backend selection --------------------------------------------------------

TYPED_TEST(FramedLinkContract, RequiresItsFlavor) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 16);
  EXPECT_THROW(TypeParam::enable(tp, {}), std::logic_error);
  EXPECT_FALSE(TypeParam::enabled(tp));
  // Without the backend the receive link IS the data link.
  EXPECT_EQ(&tp.receive_link(0), &tp.data_link(0));
}

TYPED_TEST(FramedLinkContract, EnableIsOnceOnly) {
  TransferProtocol tp(TypeParam::kFlavor, 1, 1, 16);
  TypeParam::enable(tp, {});
  EXPECT_TRUE(TypeParam::enabled(tp));
  EXPECT_THROW(TypeParam::enable(tp, {}), std::logic_error);
}

TYPED_TEST(FramedLinkContract, ReceiveLinkIsEgressNotIngress) {
  Harness<TypeParam> h;
  EXPECT_NE(&h.tp.receive_link(0), &h.tp.data_link(0));
  EXPECT_EQ(&h.tp.receive_link(0), &TypeParam::transport(h.tp)->egress(0));
}

// ---- Round trips --------------------------------------------------------------

TYPED_TEST(FramedLinkContract, RoundTripsOneBatch) {
  Harness<TypeParam> h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(3, 5, 100))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  auto* b = std::get_if<DataBatch>(&*msg);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->source_node, 3u);
  ASSERT_EQ(b->records.size(), 5u);
  EXPECT_EQ(b->records[0].seq, 100u);
  EXPECT_EQ(b->records[4].seq, 104u);
  EXPECT_TRUE(eventually([&] { return h.link().frames_delivered() == 1; }));
  // Writer counters update after the write; the reader can deliver first.
  EXPECT_TRUE(eventually([&] { return h.link().frames_sent() == 1; }));
  EXPECT_GT(h.link().bytes_sent(), 5 * sizeof(trace::EventRecord));
}

TYPED_TEST(FramedLinkContract, EmptyBatchAllowed) {
  Harness<TypeParam> h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(1, 0))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::get_if<DataBatch>(&*msg)->records.empty());
}

TYPED_TEST(FramedLinkContract, ManyBatchesPreserveOrder) {
  Harness<TypeParam> h({}, 1, 512);
  for (std::uint64_t i = 0; i < 100; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 3, i * 10))));
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto msg = h.tp.receive_link(0).pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, i * 10);
  }
  EXPECT_EQ(h.link().frames_delivered(), 100u);
  EXPECT_FALSE(h.link().stream_corrupt());
}

TYPED_TEST(FramedLinkContract, MultiLinkTrafficStaysSegregated) {
  Harness<TypeParam> h({}, 3, 64);
  for (std::uint32_t n = 0; n < 3; ++n)
    ASSERT_TRUE(h.tp.data_link(n).push(Message(batch(n, 2, n * 100))));
  for (std::uint32_t n = 0; n < 3; ++n) {
    auto msg = h.tp.receive_link(n).pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->source_node, n);
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, n * 100u);
  }
}

TYPED_TEST(FramedLinkContract, ControlMessagesBypassInOrder) {
  Harness<TypeParam> h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 2, 0))));
  ControlMessage cm;
  cm.kind = ControlKind::kFlushAll;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(cm)));
  // The data frame was flushed before the control bypass, but delivery is
  // asynchronous: the control message may surface first.  Both must
  // arrive, and the control message must never have crossed the byte path.
  bool saw_batch = false, saw_control = false;
  for (int i = 0; i < 2; ++i) {
    auto msg = h.tp.receive_link(0).pop();
    ASSERT_TRUE(msg.has_value());
    if (auto* b = std::get_if<DataBatch>(&*msg)) {
      EXPECT_EQ(b->records.size(), 2u);
      saw_batch = true;
    } else {
      EXPECT_EQ(std::get_if<ControlMessage>(&*msg)->kind,
                ControlKind::kFlushAll);
      saw_control = true;
    }
  }
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_control);
  EXPECT_TRUE(eventually(  // only the batch framed (writer counters lag)
      [&] { return h.link().frames_sent() == 1; }));
}

// ---- EOF and teardown ---------------------------------------------------------

TYPED_TEST(FramedLinkContract, ClosingDataLinksDrainsAndClosesEgress) {
  // The normal shutdown path: close_data_links() lets the pump drain,
  // flush, and EOF the byte path; every in-flight frame must still arrive.
  Harness<TypeParam> h;
  for (std::uint64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  h.tp.close_data_links();
  std::size_t records = 0;
  while (auto msg = h.tp.receive_link(0).pop())
    records += std::get_if<DataBatch>(&*msg)->records.size();
  EXPECT_EQ(records, 200u);
  EXPECT_EQ(h.link().records_lost(), 0u);
  EXPECT_EQ(h.link().frames_undelivered(), 0u);
}

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

TYPED_TEST(FramedLinkContract, RetryExhaustionAttributesTheBatch) {
  Harness<TypeParam> h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  fault::FaultPlan p;
  fault::FaultSpec s;
  s.site = TypeParam::kSendSite;
  s.kind = fault::FaultKind::kSendFail;
  s.every_n = 1;  // every attempt fails
  p.add(s);
  fault::FaultInjector inj(p, 5);
  fault::RetryPolicy rp;
  rp.max_attempts = 2;
  rp.base_backoff_ns = 100;
  h.tp.set_fault(&inj, rp);

  auto b = batch(0, 2, 0);
  offer(obs, b);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  ASSERT_TRUE(eventually([&] { return h.link().records_lost() == 2; }));
  EXPECT_EQ(h.link().send_failures(), 2u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kRetryExhausted)],
      2u);
  EXPECT_EQ(rep.in_flight, 0u);
  // Exhaustion destroyed the batch but not the stream: detach the fault and
  // later traffic still flows.
  h.tp.set_fault(nullptr);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 1, 10))));
  EXPECT_TRUE(h.tp.receive_link(0).pop().has_value());
}

TYPED_TEST(FramedLinkContract, InjectedCorruptMagicIsCaughtByTheReader) {
  Harness<TypeParam> h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  fault::FaultPlan p;
  fault::FaultSpec s;
  s.site = TypeParam::kFrameSite;
  s.kind = fault::FaultKind::kFrameCorrupt;
  s.at_op = 1;
  p.add(s);
  fault::FaultInjector inj(p, 7);
  h.tp.set_fault(&inj);

  auto b = batch(0, 3, 0);
  offer(obs, b);
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  // The corrupted frame ships whole; the reader must detect the flipped
  // magic and latch corruption.
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  auto& link = h.link();
  EXPECT_TRUE(link.stream_corrupt());
  EXPECT_EQ(link.frames_corrupt(), 1u);
  EXPECT_EQ(link.frames_aborted(), 1u);
  EXPECT_EQ(link.records_lost(), 3u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kFrameCorrupt)], 3u);
  EXPECT_EQ(rep.in_flight, 0u);
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

// ---- ISM and integrated environment -------------------------------------------

TYPED_TEST(FramedLinkContract, FeedsIsmEndToEnd) {
  Harness<TypeParam> h;
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(h.tp, cfg);
  auto stats_tool = std::make_shared<StatsTool>();
  ism.attach_tool(stats_tool);
  ism.start();
  for (std::uint64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  ism.stop();
  EXPECT_EQ(stats_tool->total(), 200u);
  EXPECT_EQ(h.link().records_lost(), 0u);
}

TYPED_TEST(FramedLinkContract, MisoEnvironmentUsesOneLinkPerNode) {
  core::EnvironmentConfig cfg;
  cfg.nodes = 3;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.flush_policy = core::FlushPolicyKind::kFof;
  cfg.local_buffer_capacity = 8;
  cfg.tp_flavor = TypeParam::kFlavor;
  cfg.ism.input = core::InputConfig::kMiso;
  cfg.ism.causal_ordering = true;
  IntegratedEnvironment env(cfg);
  ASSERT_EQ(TypeParam::transport(env.tp())->link_count(), 3u);
  auto tool = std::make_shared<StatsTool>();
  env.attach_tool(tool);
  env.start();
  for (std::uint64_t i = 0; i < 300; ++i)
    env.record(ev(static_cast<std::uint32_t>(i % 3), i / 3));
  env.stop();
  EXPECT_EQ(tool->total(), 300u);
  for (std::uint32_t n = 0; n < 3; ++n)
    EXPECT_GT(TypeParam::link(env.tp(), n).frames_delivered(), 0u);
}

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
