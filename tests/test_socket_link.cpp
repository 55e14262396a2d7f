// The fd-stream byte path (`tp = socket`): option validation, the SIGPIPE
// disposition, TCP loopback, write coalescing, cross-process delivery, and
// shutdown with frames still coalesced.  The contract every byte path
// shares (round trips, backend selection, retry exhaustion, corrupt magic,
// ISM and MISO integration, ...) lives in test_framed_link.cpp.
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

/// A kSocket TransferProtocol with the real backend enabled.
struct SocketHarness {
  explicit SocketHarness(std::size_t links = 1, std::size_t capacity = 256,
                         SocketOptions opts = {})
      : tp(TpFlavor::kSocket, links, links, capacity) {
    tp.enable_socket_backend(opts);
  }
  TransferProtocol tp;
};

// ---- Backend selection --------------------------------------------------------

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

// ---- TCP loopback -------------------------------------------------------------

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
