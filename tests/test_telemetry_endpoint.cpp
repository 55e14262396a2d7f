// The scrape endpoint and its IntegratedEnvironment wiring (DESIGN.md §14):
// the HTTP/1.0 pump over AF_UNIX and TCP loopback, untrusted-input handling
// (oversize, non-GET, unknown path), a fork-based scrape round trip, and the
// live acceptance properties — a chaos run scraped mid-run shows
// admitted == completed + lost + in_flight in every snapshot, the flight
// recorder's attribution matches the DegradationReport, and turning
// telemetry on does not change what the pipeline computes.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/environment.hpp"
#include "core/tool.hpp"
#include "fault/fault.hpp"
#include "obs/json_check.hpp"
#include "obs/obs.hpp"

#if PRISM_OBS_ENABLED
#include "obs/live/endpoint.hpp"
#include "obs/live/flight.hpp"
#include "obs/live/health.hpp"
#include "obs/live/sampler.hpp"
#endif

namespace prism {
namespace {

using core::EnvironmentConfig;
using core::IntegratedEnvironment;
using core::TelemetryMode;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::RetryPolicy;

trace::EventRecord rec(std::uint32_t node, std::uint64_t seq) {
  trace::EventRecord r;
  r.node = node;
  r.seq = seq;
  r.timestamp = seq;
  return r;
}

/// Tool that counts what it consumed.
class CountTool final : public core::Tool {
 public:
  std::string_view name() const override { return "count"; }
  void consume(const trace::EventRecord&) override {
    seen_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> seen_{0};
};

// ---- raw scrape client --------------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host_port) {
  const auto colon = host_port.rfind(':');
  if (colon == std::string::npos) return -1;
  std::uint16_t port = 0;
  const std::string p = host_port.substr(colon + 1);
  if (std::from_chars(p.data(), p.data() + p.size(), port).ec != std::errc{})
    return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` and reads the full response (the server speaks HTTP/1.0
/// with Connection: close, so EOF delimits).  Bounded by a poll timeout so a
/// broken server fails the test instead of hanging it.
std::string raw_round_trip(int fd, std::string_view request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return {};
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;  // timeout or error: give up
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF = response complete
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

std::string http_get(const std::string& address, bool is_unix,
                     const std::string& path) {
  const int fd = is_unix ? connect_unix(address) : connect_tcp(address);
  if (fd < 0) return {};
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string response = raw_round_trip(fd, req);
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{}
                                    : response.substr(split + 4);
}

std::string scratch_sock(const char* tag) {
  return "/tmp/prism.test." + std::string(tag) + "." +
         std::to_string(::getpid()) + ".sock";
}

#if PRISM_OBS_ENABLED

using obs::live::EndpointKind;
using obs::live::EndpointOptions;
using obs::live::FlightRecorder;
using obs::live::TelemetryServer;

TelemetryServer make_server(EndpointOptions eo) {
  return TelemetryServer(
      std::move(eo),
      [](std::string_view path, std::string& content_type, std::string& body) {
        if (path != "/metrics") return false;
        content_type = "text/plain; version=0.0.4";
        body = "prism_up 1\n";
        return true;
      });
}

// ---- TelemetryServer over AF_UNIX --------------------------------------------

TEST(TelemetryServer, ServesOverUnixSocket) {
  const std::string path = scratch_sock("serve");
  auto server = make_server({EndpointKind::kUnix, path});
  EXPECT_EQ(server.address(), path);

  const std::string response = http_get(path, true, "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(body_of(response), "prism_up 1\n");
  // Content-Length matches the body exactly.
  EXPECT_NE(response.find("Content-Length: 11"), std::string::npos);
  EXPECT_EQ(server.requests(), 1u);

  server.stop();
  // The unix path is unlinked on stop.
  EXPECT_LT(connect_unix(path), 0);
}

TEST(TelemetryServer, UnknownPathIs404) {
  const std::string path = scratch_sock("404");
  auto server = make_server({EndpointKind::kUnix, path});
  const std::string response = http_get(path, true, "/nope");
  EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos) << response;
}

TEST(TelemetryServer, NonGetIs400) {
  const std::string path = scratch_sock("post");
  auto server = make_server({EndpointKind::kUnix, path});
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  const std::string response =
      raw_round_trip(fd, "POST /metrics HTTP/1.0\r\n\r\n");
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos) << response;
}

TEST(TelemetryServer, OversizeRequestIs400NotAnUnboundedBuffer) {
  const std::string path = scratch_sock("big");
  auto server = make_server({EndpointKind::kUnix, path});
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  // No terminator anywhere: only the size cap can end this request.
  const std::string garbage(TelemetryServer::kMaxRequestBytes + 64, 'x');
  const std::string response = raw_round_trip(fd, garbage);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos) << response;
}

TEST(TelemetryServer, BarePathProbeWithoutHttpVersionWorks) {
  // `GET /metrics` + newline, no HTTP/x.y — the netcat/debug form.
  const std::string path = scratch_sock("bare");
  auto server = make_server({EndpointKind::kUnix, path});
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  const std::string response = raw_round_trip(fd, "GET /metrics\n");
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_EQ(body_of(response), "prism_up 1\n");
}

TEST(TelemetryServer, TcpEphemeralPortReportsRealAddress) {
  auto server = make_server({EndpointKind::kTcp, "0"});
  const std::string& addr = server.address();
  ASSERT_EQ(addr.rfind("127.0.0.1:", 0), 0u) << addr;
  ASSERT_NE(addr, "127.0.0.1:0");  // the real bound port, not the request
  const std::string response = http_get(addr, false, "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_EQ(body_of(response), "prism_up 1\n");
}

TEST(TelemetryServer, ServesManySequentialScrapes) {
  const std::string path = scratch_sock("many");
  auto server = make_server({EndpointKind::kUnix, path});
  for (int i = 0; i < 20; ++i) {
    const std::string response = http_get(path, true, "/metrics");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << "scrape " << i;
  }
  EXPECT_EQ(server.requests(), 20u);
}

// ---- fork-based scrape round trip --------------------------------------------

TEST(TelemetryScrape, ForkedChildScrapesALiveEnvironmentOverUnix) {
  const std::string path = scratch_sock("fork");
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.telemetry.mode = TelemetryMode::kUnix;
  cfg.telemetry.endpoint = path;
  cfg.telemetry.period_ms = 5;
  IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<CountTool>();
  env.attach_tool(tool);
  env.start();
  for (std::uint64_t i = 0; i < 64; ++i) env.record(rec(i % 2, i));

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: plain POSIX scrape, no gtest, no atexit — report via exit code.
    const std::string response = http_get(path, true, "/metrics");
    const bool ok =
        response.find("HTTP/1.0 200 OK") != std::string::npos &&
        response.find("prism_pipeline_records{stage=\"lis\","
                      "state=\"admitted\"}") != std::string::npos &&
        response.find("# TYPE prism_pipeline_conserved gauge") !=
            std::string::npos;
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child scrape failed";
  env.stop();
}

// ---- live environment integration --------------------------------------------

TEST(TelemetryLive, EnvironmentServesMetricsHealthAndFlight) {
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.telemetry.mode = TelemetryMode::kUnix;
  cfg.telemetry.endpoint = scratch_sock("env");
  IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<CountTool>();
  env.attach_tool(tool);
  env.start();
  ASSERT_NE(env.telemetry_sampler(), nullptr);
  ASSERT_NE(env.telemetry_server(), nullptr);
  EXPECT_EQ(env.telemetry_address(), cfg.telemetry.endpoint);

  // Per-node contiguous seqs: the causal reorderer must not hold anything.
  for (std::uint64_t i = 0; i < 32; ++i) env.record(rec(i % 2, i / 2));

  const std::string metrics =
      body_of(http_get(env.telemetry_address(), true, "/metrics"));
  EXPECT_NE(metrics.find("# TYPE prism_pipeline_records gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("prism_health_sample_seq"), std::string::npos);

  const std::string health =
      body_of(http_get(env.telemetry_address(), true, "/health"));
  const auto doc = obs::jsonlite::parse(health);
  ASSERT_TRUE(doc.has_value()) << health;
  EXPECT_EQ(doc->find("version")->num, obs::live::kHealthSnapshotVersion);

  const std::string flight =
      body_of(http_get(env.telemetry_address(), true, "/flight"));
  EXPECT_TRUE(obs::jsonlite::valid(flight)) << flight;

  env.stop();
  EXPECT_EQ(tool->seen(), 32u);
}

// The acceptance criterion: a chaotic run is scrapeable mid-run, and every
// scrape satisfies the conservation identity on every stage — flat, and
// federated with two shards shipping to the root over shm (so the agg and
// uplink rows are live too).
TEST(TelemetryLive, MidChaosScrapesConserveOnEveryStage) {
  struct Topology {
    const char* name;
    std::uint32_t shards;
    std::vector<std::string> rows;  ///< stage rows every scrape carries
  };
  const Topology topologies[] = {
      {"flat", 0, {"lis", "ism", "pipeline"}},
      {"fed2", 2, {"lis", "agg", "uplink", "ism", "pipeline"}},
  };
  for (const Topology& topo : topologies) {
    SCOPED_TRACE(topo.name);
    EnvironmentConfig cfg;
    cfg.nodes = 2;
    cfg.lis_style = core::LisStyle::kBuffered;
    cfg.local_buffer_capacity = 8;
    // Lossy run: without causal ordering, a seq gap from a lost send does
    // not strand every later record of that node in a reorderer — the
    // terminal drain can then empty the pipeline row completely.
    cfg.ism.causal_ordering = false;
    cfg.federation.shards = topo.shards;
    cfg.federation.assign = core::ShardAssign::kModulo;  // one node per shard
    cfg.federation.agg_batch_records = 8;
    cfg.federation.root_tp = core::TpFlavor::kShm;
    cfg.telemetry.mode = TelemetryMode::kUnix;
    cfg.telemetry.endpoint = scratch_sock(topo.name);
    cfg.telemetry.period_ms = 2;
    IntegratedEnvironment env(cfg);
    auto tool = std::make_shared<CountTool>();
    env.attach_tool(tool);

    FaultPlan plan;
    plan.send_failure(FaultSite::kTpSend, 0.10);
    FaultInjector inj(plan, 1234);
    RetryPolicy rp;
    rp.max_attempts = 2;  // one retry
    env.set_fault(&inj, rp);
    env.start();

    std::uint64_t last_admitted = 0;
    int scrapes = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
      env.record(rec(i % 2, i / 2));
      if (i % 400 != 399) continue;
      const std::string health =
          body_of(http_get(env.telemetry_address(), true, "/health"));
      const auto doc = obs::jsonlite::parse(health);
      ASSERT_TRUE(doc.has_value()) << health;
      const auto* stages = doc->find("stages");
      ASSERT_NE(stages, nullptr);
      ASSERT_TRUE(stages->is_array());
      ASSERT_EQ(stages->arr.size(), topo.rows.size());
      for (std::size_t k = 0; k < topo.rows.size(); ++k) {
        const auto& s = stages->arr[k];
        EXPECT_EQ(s.find("name")->str, topo.rows[k]);
        const auto admitted =
            static_cast<std::uint64_t>(s.find("admitted")->num);
        const auto completed =
            static_cast<std::uint64_t>(s.find("completed")->num);
        const auto lost = static_cast<std::uint64_t>(s.find("lost")->num);
        const auto in_flight =
            static_cast<std::uint64_t>(s.find("in_flight")->num);
        // "conserved" is false for a torn row too (StageHealth::conserved).
        EXPECT_TRUE(s.find("conserved")->b)
            << s.find("name")->str << " at scrape " << scrapes;
        EXPECT_EQ(admitted, completed + lost + in_flight)
            << s.find("name")->str;
        if (s.find("name")->str == "lis") {
          // Admissions are monotone scrape over scrape.
          EXPECT_GE(admitted, last_admitted);
          last_admitted = admitted;
        }
      }
      ++scrapes;
    }
    EXPECT_EQ(scrapes, 10);
    env.stop();

    // The terminal (post-drain) sample conserves too, with nothing in
    // flight on the pipeline row.
    obs::live::HealthSnapshot hs;
    ASSERT_TRUE(env.telemetry_sampler()->read(hs));
    EXPECT_TRUE(hs.conserved());
    const auto* pipeline = hs.stage("pipeline");
    ASSERT_NE(pipeline, nullptr);
    EXPECT_EQ(pipeline->in_flight, 0u);
    EXPECT_EQ(pipeline->completed, tool->seen());
  }
}

// `ism_shards` in a config file builds the federated topology in
// IntegratedEnvironment itself, and telemetry serves it: the terminal
// snapshot carries the aggregator row and conserves on every stage.
TEST(TelemetryLive, IsmShardsConfigRunsFederatedWithTelemetry) {
  const std::string sock = scratch_sock("shards");
  const EnvironmentConfig cfg = core::parse_environment_config(
      "nodes = 8\n"
      "ism_shards = 2\n"
      "telemetry = unix\n"
      "telemetry_period_ms = 5\n"
      "telemetry_endpoint = " + sock + "\n");
  IntegratedEnvironment env(cfg);
  EXPECT_EQ(env.shards(), 2u);
  auto tool = std::make_shared<CountTool>();
  env.attach_tool(tool);
  env.start();
  for (std::uint64_t i = 0; i < 800; ++i) env.record(rec(i % 8, i / 8));
  const std::string health =
      body_of(http_get(env.telemetry_address(), true, "/health"));
  EXPECT_TRUE(obs::jsonlite::valid(health)) << health;
  env.stop();

  EXPECT_EQ(tool->seen(), 800u);
  obs::live::HealthSnapshot hs;
  ASSERT_TRUE(env.telemetry_sampler()->read(hs));
  EXPECT_TRUE(hs.conserved());
  const auto* agg = hs.stage("agg");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->admitted, 800u);
  EXPECT_EQ(agg->completed, 800u);
  const auto* pipeline = hs.stage("pipeline");
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->in_flight, 0u);
  EXPECT_EQ(pipeline->completed, 800u);
  EXPECT_EQ(hs.degraded, 0u);
}

// The flight recorder's attribution must agree with the DegradationReport:
// same losses, same categories, independently accounted.
TEST(TelemetryLive, FlightRecorderMatchesDegradationReport) {
  FlightRecorder::instance().reset();
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.local_buffer_capacity = 4;
  IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<CountTool>();
  env.attach_tool(tool);

  FaultPlan plan;
  plan.send_failure(FaultSite::kTpSend, 0.15);
  plan.crash(FaultSite::kTpSend, 120, 1);  // node 1 dies on its 120th consult
  FaultInjector inj(plan, 77);
  RetryPolicy rp;
  rp.max_attempts = 1;  // no retries: every failed send is a loss
  env.set_fault(&inj, rp);
  env.start();
  for (std::uint64_t i = 0; i < 1000; ++i) env.record(rec(i % 2, i / 2));
  env.stop();

  const auto deg = env.degradation();
  ASSERT_TRUE(deg.degraded());  // the plan guarantees losses at these odds
  const auto& fr = FlightRecorder::instance();
  EXPECT_EQ(fr.count_in_category("send_loss"), deg.records_lost_send);
  EXPECT_EQ(fr.count_in_category("dead_loss"), deg.records_lost_dead);
  EXPECT_EQ(fr.count_in_category("wire_loss"), deg.records_lost_wire);
  EXPECT_EQ(fr.events_in_category("lis_crash"), deg.lises_dead);
  EXPECT_EQ(fr.events_in_category("tool_isolated"), deg.tools_failed);
  EXPECT_EQ(fr.events_in_category("control_drop"), deg.control_dropped);
}

// Telemetry must observe, never perturb: the same seeded chaos run computes
// the same ledger with the plane on and off.
TEST(TelemetryLive, SameSeedSameLedgerWithTelemetryOnAndOff) {
  struct Ledger {
    core::LisStats lis;
    std::uint64_t dispatched = 0;
    std::uint64_t seen = 0;
    core::DegradationReport deg;
  };
  auto run = [&](TelemetryMode mode) {
    EnvironmentConfig cfg;
    cfg.nodes = 2;
    cfg.lis_style = core::LisStyle::kBuffered;
    cfg.local_buffer_capacity = 8;
    cfg.telemetry.mode = mode;
    cfg.telemetry.period_ms = 1;  // sample as aggressively as possible
    if (mode == TelemetryMode::kUnix)
      cfg.telemetry.endpoint = scratch_sock("ab");
    IntegratedEnvironment env(cfg);
    auto tool = std::make_shared<CountTool>();
    env.attach_tool(tool);
    FaultPlan plan;
    plan.send_failure(FaultSite::kTpSend, 0.2);
    FaultInjector inj(plan, 4242);
    RetryPolicy rp;
    rp.max_attempts = 1;  // no retries: losses are frequent, never zero
    env.set_fault(&inj, rp);
    env.start();
    for (std::uint64_t i = 0; i < 2000; ++i) {
      env.record(rec(i % 2, i / 2));
      if (mode == TelemetryMode::kUnix && i % 500 == 499)
        http_get(env.telemetry_address(), true, "/metrics");  // live scrapes
    }
    env.stop();
    Ledger l;
    l.lis = env.total_lis_stats();
    l.dispatched = env.ism().stats().records_dispatched;
    l.seen = tool->seen();
    l.deg = env.degradation();
    return l;
  };

  const Ledger off = run(TelemetryMode::kOff);
  const Ledger on = run(TelemetryMode::kUnix);
  EXPECT_EQ(off.lis.recorded, on.lis.recorded);
  EXPECT_EQ(off.lis.records_forwarded, on.lis.records_forwarded);
  EXPECT_EQ(off.lis.lost_send, on.lis.lost_send);
  EXPECT_EQ(off.lis.lost_dead, on.lis.lost_dead);
  EXPECT_EQ(off.lis.dropped, on.lis.dropped);
  EXPECT_EQ(off.dispatched, on.dispatched);
  EXPECT_EQ(off.seen, on.seen);
  EXPECT_EQ(off.deg.records_lost_send, on.deg.records_lost_send);
  EXPECT_EQ(off.deg.lises_dead, on.deg.lises_dead);
  // And losses actually happened, so the comparison is not vacuous.
  EXPECT_GT(off.deg.records_lost_send, 0u);
}

TEST(TelemetryLive, OffModeStartsNoTelemetryMachinery) {
  EnvironmentConfig cfg;  // telemetry.mode defaults to kOff
  IntegratedEnvironment env(cfg);
  env.start();
  EXPECT_EQ(env.telemetry_sampler(), nullptr);
  EXPECT_EQ(env.telemetry_server(), nullptr);
  EXPECT_EQ(env.telemetry_address(), "");
  env.stop();
}

#else  // !PRISM_OBS_ENABLED

TEST(TelemetryLive, RequestingTelemetryInAnObsOffBuildThrows) {
  EnvironmentConfig cfg;
  cfg.telemetry.mode = TelemetryMode::kUnix;
  IntegratedEnvironment env(cfg);
  EXPECT_THROW(env.start(), std::runtime_error);
}

#endif  // PRISM_OBS_ENABLED

// ---- config keys --------------------------------------------------------------

TEST(TelemetryConfig, ParsesTheTelemetryKeys) {
  const auto cfg = core::parse_environment_config(
      "telemetry = tcp\n"
      "telemetry_period_ms = 25\n"
      "telemetry_endpoint = 9109\n");
  EXPECT_EQ(cfg.telemetry.mode, TelemetryMode::kTcp);
  EXPECT_EQ(cfg.telemetry.period_ms, 25u);
  EXPECT_EQ(cfg.telemetry.endpoint, "9109");
}

TEST(TelemetryConfig, DefaultsToOff) {
  const auto cfg = core::parse_environment_config("nodes = 2\n");
  EXPECT_EQ(cfg.telemetry.mode, TelemetryMode::kOff);
  EXPECT_EQ(cfg.telemetry.period_ms, 100u);
}

TEST(TelemetryConfig, RejectsBadModeAndZeroPeriod) {
  EXPECT_THROW(core::parse_environment_config("telemetry = loud\n"),
               core::ConfigError);
  EXPECT_THROW(core::parse_environment_config("telemetry_period_ms = 0\n"),
               core::ConfigError);
}

TEST(TelemetryConfig, RoundTripsThroughSerialize) {
  EnvironmentConfig cfg;
  cfg.telemetry.mode = TelemetryMode::kUnix;
  cfg.telemetry.period_ms = 7;
  cfg.telemetry.endpoint = "/tmp/x.sock";
  const auto back =
      core::parse_environment_config(core::serialize_environment_config(cfg));
  EXPECT_EQ(back.telemetry.mode, TelemetryMode::kUnix);
  EXPECT_EQ(back.telemetry.period_ms, 7u);
  EXPECT_EQ(back.telemetry.endpoint, "/tmp/x.sock");
}

}  // namespace
}  // namespace prism
