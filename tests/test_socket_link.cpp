// The fd-stream byte path (`tp = socket`): framing round trips over
// AF_UNIX / TCP loopback, write coalescing, the SIGPIPE disposition,
// retry exhaustion and corrupt-magic attribution, cross-process delivery,
// and integration with the ISM and the integrated environment.  The
// contract every byte path shares lives in test_framed_link.cpp.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/clock.hpp"
#include "core/environment.hpp"
#include "core/io_loop.hpp"
#include "core/ism.hpp"
#include "core/socket_link.hpp"
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

/// A kSocket TransferProtocol with the real backend enabled — the harness
/// most tests push batches into and pop frames out of.
struct SocketHarness {
  explicit SocketHarness(std::size_t links = 1, std::size_t capacity = 256,
                         SocketOptions opts = {})
      : tp(TpFlavor::kSocket, links, links, capacity) {
    tp.enable_socket_backend(opts);
  }
  TransferProtocol tp;
};

// ---- Backend selection --------------------------------------------------------

TEST(SocketBackend, RequiresSocketFlavor) {
  TransferProtocol tp(TpFlavor::kPipe, 1, 1, 16);
  EXPECT_THROW(tp.enable_socket_backend(), std::logic_error);
  EXPECT_FALSE(tp.socket_backend_enabled());
  // Without the backend the receive link IS the data link.
  EXPECT_EQ(&tp.receive_link(0), &tp.data_link(0));
}

TEST(SocketBackend, EnableIsOnceOnly) {
  TransferProtocol tp(TpFlavor::kSocket, 1, 1, 16);
  tp.enable_socket_backend();
  EXPECT_TRUE(tp.socket_backend_enabled());
  EXPECT_THROW(tp.enable_socket_backend(), std::logic_error);
}

TEST(SocketBackend, RejectsUnusableOptions) {
  TransferProtocol tp(TpFlavor::kSocket, 1, 1, 16);
  SocketOptions bad;
  bad.coalesce_byte_budget = 0;
  EXPECT_THROW(tp.enable_socket_backend(bad), std::invalid_argument);
}

TEST(SocketBackend, LaterTransportsDoNotReclobberSigpipeHandler) {
  // The SIGPIPE disposition is installed exactly once per process: a
  // handler the application installs afterwards survives every later
  // transport construction.
  { SocketHarness first; }  // guarantees the one-time install has fired
  struct sigaction custom {};
  custom.sa_handler = [](int) {};
  ASSERT_EQ(::sigaction(SIGPIPE, &custom, nullptr), 0);
  {
    SocketHarness second;
    ASSERT_TRUE(second.tp.data_link(0).push(Message(batch(0, 1))));
    ASSERT_TRUE(second.tp.receive_link(0).pop().has_value());
    struct sigaction now {};
    ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &now), 0);
    EXPECT_EQ(now.sa_handler, custom.sa_handler);
  }
  // Restore SIG_IGN: the rest of the suite depends on EPIPE semantics.
  struct sigaction ign {};
  ign.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGPIPE, &ign, nullptr), 0);
}

TEST(SocketBackend, ReceiveLinkIsEgressNotIngress) {
  SocketHarness h;
  EXPECT_NE(&h.tp.receive_link(0), &h.tp.data_link(0));
  EXPECT_EQ(&h.tp.receive_link(0), &h.tp.socket_transport()->egress(0));
}

// ---- Round trips --------------------------------------------------------------

TEST(SocketLinkTest, RoundTripsOneBatch) {
  SocketHarness h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(3, 5, 100))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  auto* b = std::get_if<DataBatch>(&*msg);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->source_node, 3u);
  ASSERT_EQ(b->records.size(), 5u);
  EXPECT_EQ(b->records[0].seq, 100u);
  EXPECT_EQ(b->records[4].seq, 104u);
  EXPECT_TRUE(
      eventually([&] { return h.tp.socket_link(0).frames_delivered() == 1; }));
  // Writer counters update after write(2); the reader can deliver first.
  EXPECT_TRUE(
      eventually([&] { return h.tp.socket_link(0).frames_sent() == 1; }));
  EXPECT_GT(h.tp.socket_link(0).bytes_sent(), 5 * sizeof(trace::EventRecord));
}

TEST(SocketLinkTest, EmptyBatchAllowed) {
  SocketHarness h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(1, 0))));
  auto msg = h.tp.receive_link(0).pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::get_if<DataBatch>(&*msg)->records.empty());
}

TEST(SocketLinkTest, ManyBatchesPreserveOrder) {
  SocketHarness h(1, 512);
  for (std::uint64_t i = 0; i < 100; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 3, i * 10))));
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto msg = h.tp.receive_link(0).pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, i * 10);
  }
  EXPECT_EQ(h.tp.socket_link(0).frames_delivered(), 100u);
  EXPECT_FALSE(h.tp.socket_link(0).stream_corrupt());
}

TEST(SocketLinkTest, TcpLoopbackRoundTrips) {
  SocketOptions opts;
  opts.domain = SocketDomain::kTcpLoopback;
  SocketHarness h(1, 256, opts);
  for (std::uint64_t i = 0; i < 20; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(1, 4, i * 4))));
  std::size_t records = 0;
  for (int i = 0; i < 20; ++i) {
    auto msg = h.tp.receive_link(0).pop();
    ASSERT_TRUE(msg.has_value());
    records += std::get_if<DataBatch>(&*msg)->records.size();
  }
  EXPECT_EQ(records, 80u);
}

TEST(SocketLinkTest, MultiLinkTrafficStaysSegregated) {
  SocketHarness h(3, 64);
  for (std::uint32_t n = 0; n < 3; ++n)
    ASSERT_TRUE(h.tp.data_link(n).push(Message(batch(n, 2, n * 100))));
  for (std::uint32_t n = 0; n < 3; ++n) {
    auto msg = h.tp.receive_link(n).pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->source_node, n);
    EXPECT_EQ(std::get_if<DataBatch>(&*msg)->records[0].seq, n * 100u);
  }
}

TEST(SocketLinkTest, ControlMessagesBypassTheWireInOrder) {
  SocketHarness h;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 2, 0))));
  ControlMessage cm;
  cm.kind = ControlKind::kFlushAll;
  ASSERT_TRUE(h.tp.data_link(0).push(Message(cm)));
  // The data frame was flushed before the control bypass, but wire delivery
  // is asynchronous: the control message may surface first.  Both must
  // arrive, and the control message must never have crossed the socket.
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
      [&] { return h.tp.socket_link(0).frames_sent() == 1; }));
}

// ---- Coalescing ---------------------------------------------------------------

TEST(SocketCoalescing, QueuedFramesShareOneWrite) {
  // Pre-queue the batches, then enable the backend: the pump finds them all
  // waiting and must coalesce them into a single write(2).
  TransferProtocol tp(TpFlavor::kSocket, 1, 1, 256);
  for (std::uint64_t i = 0; i < 10; ++i)
    ASSERT_TRUE(tp.data_link(0).push(Message(batch(0, 1, i))));
  tp.enable_socket_backend();  // default 64 KiB budget >> 10 tiny frames
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(tp.receive_link(0).pop());
  // frames_sent updates after write(2): wait for it, then writes() is final
  // too (it is incremented before frames_sent in the same flush).
  EXPECT_TRUE(
      eventually([&] { return tp.socket_link(0).frames_sent() == 10u; }));
  EXPECT_LT(tp.socket_link(0).writes(), 10u);
}

TEST(SocketCoalescing, TinyBudgetFlushesEveryFrame) {
  TransferProtocol tp(TpFlavor::kSocket, 1, 1, 256);
  for (std::uint64_t i = 0; i < 10; ++i)
    ASSERT_TRUE(tp.data_link(0).push(Message(batch(0, 1, i))));
  SocketOptions opts;
  opts.coalesce_byte_budget = 1;  // every serialized frame exceeds this
  tp.enable_socket_backend(opts);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(tp.receive_link(0).pop());
  EXPECT_TRUE(
      eventually([&] { return tp.socket_link(0).frames_sent() == 10u; }));
  EXPECT_EQ(tp.socket_link(0).writes(), 10u);
}

// ---- EOF and teardown ---------------------------------------------------------

TEST(SocketLinkTest, ClosingDataLinksDrainsAndClosesEgress) {
  // The normal shutdown path: close_data_links() lets the pump drain,
  // flush, and EOF the wire; every in-flight frame must still arrive.
  SocketHarness h;
  for (std::uint64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(h.tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  h.tp.close_data_links();
  std::size_t records = 0;
  while (auto msg = h.tp.receive_link(0).pop())
    records += std::get_if<DataBatch>(&*msg)->records.size();
  EXPECT_EQ(records, 200u);
  EXPECT_EQ(h.tp.socket_link(0).records_lost(), 0u);
  EXPECT_EQ(h.tp.socket_link(0).frames_undelivered(), 0u);
}

// ---- Fault injection ----------------------------------------------------------

TEST(SocketFault, RetryExhaustionAttributesTheBatch) {
  SocketHarness h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  fault::FaultPlan p;
  fault::FaultSpec s;
  s.site = fault::FaultSite::kSocketSend;
  s.kind = fault::FaultKind::kSendFail;
  s.every_n = 1;  // every attempt fails
  p.add(s);
  fault::FaultInjector inj(p, 5);
  fault::RetryPolicy rp;
  rp.max_attempts = 2;
  rp.base_backoff_ns = 100;
  h.tp.set_fault(&inj, rp);

  auto b = batch(0, 2, 0);
  for (const auto& r : b.records)
    obs.lineage.offer(obs::lineage_key(r.node, r.process, r.seq),
                      static_cast<double>(now_ns()));
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  ASSERT_TRUE(
      eventually([&] { return h.tp.socket_link(0).records_lost() == 2; }));
  EXPECT_EQ(h.tp.socket_link(0).send_failures(), 2u);
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

TEST(SocketFault, InjectedCorruptMagicIsCaughtByTheReader) {
  SocketHarness h;
  obs::PipelineObserver obs;
  h.tp.set_observer(&obs);
  fault::FaultPlan p;
  fault::FaultSpec s;
  s.site = fault::FaultSite::kSocketFrame;
  s.kind = fault::FaultKind::kFrameCorrupt;
  s.at_op = 1;
  p.add(s);
  fault::FaultInjector inj(p, 7);
  h.tp.set_fault(&inj);

  auto b = batch(0, 3, 0);
  for (const auto& r : b.records)
    obs.lineage.offer(obs::lineage_key(r.node, r.process, r.seq),
                      static_cast<double>(now_ns()));
  ASSERT_TRUE(h.tp.data_link(0).push(Message(std::move(b))));
  // The corrupted frame ships whole; the reader must detect the flipped
  // magic and latch corruption.
  EXPECT_FALSE(h.tp.receive_link(0).pop().has_value());
  auto& link = h.tp.socket_link(0);
  EXPECT_TRUE(link.stream_corrupt());
  EXPECT_EQ(link.frames_corrupt(), 1u);
  EXPECT_EQ(link.frames_aborted(), 1u);
  EXPECT_EQ(link.records_lost(), 3u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(
      rep.lost_at[static_cast<std::size_t>(obs::LossSite::kFrameCorrupt)], 3u);
  EXPECT_EQ(rep.in_flight, 0u);
}

// ---- Cross-process ------------------------------------------------------------

TEST(SocketCrossProcess, ForkedChildFramesArriveIntact) {
  // The whole point of a real socket TP: the producer can live in another
  // process.  The child serializes frames with the shared wire helpers and
  // exits; the parent parses them off its end of the AF_UNIX pair.
  auto [read_fd, write_fd] = make_socket_pair(SocketDomain::kUnix);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest assertions, no atexit — write and _exit.
    ::close(read_fd);
    std::vector<char> wire;
    for (std::uint64_t i = 0; i < 8; ++i) {
      DataBatch b;
      b.source_node = 42;
      b.t_sent_ns = i;
      for (std::uint64_t j = 0; j < 3; ++j) {
        trace::EventRecord r;
        r.node = 42;
        r.seq = i * 3 + j;
        b.records.push_back(r);
      }
      append_frame(wire, b);
    }
    const bool ok =
        io_write_all(write_fd, wire.data(), wire.size()) == wire.size();
    ::close(write_fd);
    ::_exit(ok ? 0 : 1);
  }
  ::close(write_fd);
  std::uint64_t next_seq = 0;
  for (int i = 0; i < 8; ++i) {
    FrameHeader hdr;
    ASSERT_EQ(io_read_full(read_fd, &hdr, sizeof hdr), sizeof hdr);
    ASSERT_EQ(hdr.magic, kFrameMagic);
    ASSERT_EQ(hdr.source_node, 42u);
    ASSERT_EQ(hdr.record_count, 3u);
    std::vector<trace::EventRecord> recs(hdr.record_count);
    const std::size_t want = recs.size() * sizeof(trace::EventRecord);
    ASSERT_EQ(io_read_full(read_fd, recs.data(), want), want);
    for (const auto& r : recs) EXPECT_EQ(r.seq, next_seq++);
  }
  char extra;
  EXPECT_EQ(io_read_full(read_fd, &extra, 1), 0u);  // clean EOF
  ::close(read_fd);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// ---- ISM / environment integration --------------------------------------------

TEST(SocketIntegration, FeedsIsmEndToEnd) {
  TransferProtocol tp(TpFlavor::kSocket, 1, 1, 256);
  tp.enable_socket_backend();
  IsmConfig cfg;
  cfg.causal_ordering = false;
  Ism ism(tp, cfg);
  auto stats_tool = std::make_shared<StatsTool>();
  ism.attach_tool(stats_tool);
  ism.start();
  for (std::uint64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(tp.data_link(0).push(Message(batch(0, 4, i * 4))));
  ism.stop();
  EXPECT_EQ(stats_tool->total(), 200u);
  EXPECT_EQ(tp.socket_link(0).records_lost(), 0u);
}

TEST(SocketIntegration, MisoEnvironmentUsesOneSocketPerNode) {
  core::EnvironmentConfig cfg;
  cfg.nodes = 3;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.flush_policy = core::FlushPolicyKind::kFof;
  cfg.local_buffer_capacity = 8;
  cfg.tp_flavor = TpFlavor::kSocket;
  cfg.ism.input = core::InputConfig::kMiso;
  cfg.ism.causal_ordering = true;
  IntegratedEnvironment env(cfg);
  ASSERT_EQ(env.tp().socket_transport()->link_count(), 3u);
  auto tool = std::make_shared<StatsTool>();
  env.attach_tool(tool);
  env.start();
  for (std::uint64_t i = 0; i < 300; ++i)
    env.record(ev(static_cast<std::uint32_t>(i % 3), i / 3));
  env.stop();
  EXPECT_EQ(tool->total(), 300u);
  for (std::uint32_t n = 0; n < 3; ++n)
    EXPECT_GT(env.tp().socket_link(n).frames_delivered(), 0u);
}

TEST(SocketIntegration, CoalescedShutdownLosesNothing) {
  // Shutdown while frames sit in the coalescing buffer and kernel buffer:
  // stop() must drain everything through the wire, not strand it.
  core::EnvironmentConfig cfg;
  cfg.nodes = 1;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.tp_flavor = TpFlavor::kSocket;
  cfg.socket.coalesce_byte_budget = 1 << 20;  // effectively never auto-flush
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<StatsTool>();
  env.attach_tool(tool);
  env.start();
  for (std::uint64_t i = 0; i < 250; ++i) env.record(ev(0, i));
  env.stop();
  EXPECT_EQ(tool->total(), 250u);
  EXPECT_EQ(env.tp().socket_link(0).records_lost(), 0u);
}

}  // namespace
}  // namespace prism::core
