// Scrape endpoint (DESIGN.md §14): a tiny HTTP/1.0 server on its own thread
// serving telemetry over AF_UNIX or TCP loopback, so `curl --unix-socket`
// and any Prometheus-style scraper can read a live run without linking
// against us.
//
// Discipline (same as socket_link's wire handling — this port faces
// untrusted input):
//   * the listen and connection sockets are non-blocking; one poll() pump
//     multiplexes accept, request reads, and response writes, so a stalled
//     or malicious client can never wedge the thread;
//   * requests are capped at kMaxRequestBytes — longer input gets 400 and a
//     close, never an unbounded buffer;
//   * only `GET <path>` is understood; anything else is 400, an unknown
//     path is 404.  Responses are HTTP/1.0 with Content-Length and
//     Connection: close, which is the minimum curl and prometheus accept;
//   * connection count is capped; excess accepts are closed immediately.
//
// The server knows nothing about telemetry: a ScrapeHandler callback maps a
// path to (content type, body).  Wiring in IntegratedEnvironment (the one
// environment, for the flat and the federated topology alike) points it at
// the sampler/exposition/flight surfaces.  TCP binds 127.0.0.1 only —
// this is an operator loopback port, not a network service.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace prism::obs::live {

/// Maps a request path to a response.  Returns true and fills content_type +
/// body when the path is known; false yields 404.  Called on the server
/// thread; must be thread-safe against the rest of the process.
using ScrapeHandler = std::function<bool(
    std::string_view path, std::string& content_type, std::string& body)>;

enum class EndpointKind { kUnix, kTcp };

struct EndpointOptions {
  EndpointKind kind = EndpointKind::kUnix;
  /// kUnix: filesystem socket path (unlinked on bind and on stop).
  /// kTcp: port number as text ("0" = ephemeral); always bound to 127.0.0.1.
  std::string address;
};

class TelemetryServer {
 public:
  static constexpr std::size_t kMaxRequestBytes = 4096;
  static constexpr std::size_t kMaxConnections = 16;

  /// Binds, listens, and starts the pump thread.  Throws std::runtime_error
  /// with errno detail when the socket can't be set up.
  TelemetryServer(EndpointOptions options, ScrapeHandler handler);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Stops the pump, closes every socket, unlinks the unix path.  Idempotent.
  void stop();

  /// The bound address: the unix path, or "127.0.0.1:<port>" with the real
  /// port after ephemeral bind.
  const std::string& address() const noexcept { return address_; }

  EndpointKind kind() const noexcept { return options_.kind; }

  /// Requests answered (any status).  For tests and the overhead gate.
  std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;        // request bytes, capped at kMaxRequestBytes
    std::string out;       // response bytes
    std::size_t sent = 0;  // of out
    bool responding = false;
  };

  void pump();
  void handle_request(Conn& c);
  void build_response(Conn& c, int status, std::string_view content_type,
                      std::string body);

  EndpointOptions options_;
  ScrapeHandler handler_;
  std::string address_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace prism::obs::live
