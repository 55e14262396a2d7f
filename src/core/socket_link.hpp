// The fd-stream byte path of the framed-link engine (framed_link.hpp): the
// `tp = socket` backend (§2.2.3 names sockets as the Pablo / Issos TP).
// Enabling it on a kSocket TransferProtocol routes every data link's
// batches over an actual kernel stream socket (AF_UNIX pair by default,
// TCP loopback optionally) while the LIS and ISM code stay unchanged.
//
// What this policy owns is only how bytes move over a non-blocking fd:
//   - write side: frames are serialized into a coalescing buffer and go
//     out in one write(2) (io_write_all, parking in poll(POLLOUT) on a full
//     kernel buffer) once SocketOptions::coalesce_byte_budget is reached or
//     the ingress runs dry.  A write that breaks off part-way is split per
//     staged frame — whole, cut, or never sent — for the engine's ledger.
//   - read side: one poll(2) over every link's read fd; reads accumulate
//     until a header or payload is complete.  EOF at a frame boundary is
//     clean, EOF mid-frame is truncation.
// Corollary of the shared reader: one slow egress can head-of-line-block
// it; that is the same single-ISM-input serialization the paper's SISO
// analysis assumes.  Fault sites: kSocketSend / kSocketFrame.
#pragma once

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/framed_link.hpp"

namespace prism::core {

/// Creates a connected stream-socket pair of the given domain:
/// {read_fd, write_fd}, both blocking (the fd-stream path switches its own
/// fds to non-blocking).  kUnix uses socketpair(2); kTcpLoopback binds
/// 127.0.0.1:0, connects, and sets TCP_NODELAY on both ends.  Throws
/// std::system_error on failure.  Public so cross-process tests can fork
/// around one end.
std::pair<int, int> make_socket_pair(SocketDomain domain);

/// Owns one file descriptor: closed on reset() or destruction, movable.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  UniqueFd(UniqueFd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  ~UniqueFd() { reset(); }
  int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }

 private:
  int fd_ = -1;
};

/// The fd-stream byte policy of FramedLink / FramedTransport.
struct FdStreamPath {
  using Options = SocketOptions;
  static constexpr fault::FaultSite kSendSite = fault::FaultSite::kSocketSend;
  static constexpr fault::FaultSite kFrameSite = fault::FaultSite::kSocketFrame;
  static constexpr std::uint64_t kBackoffSalt = 0x50cb;
  static constexpr bool kCoalesces = true;
  static constexpr const char* kPumpClock = "io.socket.pump";
  static constexpr const char* kReaderClock = "io.socket.reader";
  static constexpr const char* kStreamName = "socket";

  /// Write side: the coalescing buffer in front of the write fd.
  class Writer {
   public:
    Writer(UniqueFd fd, std::size_t budget)
        : fd_(std::move(fd)), budget_(budget) {}

    void close() { fd_.reset(); }
    void poison() {}  // a torn byte stream poisons itself
    static constexpr bool make_room(std::size_t, LinkCounters&, std::size_t) {
      return true;  // a full kernel buffer parks inside io_write_all
    }
    bool pending() const { return !wire_.empty(); }
    bool over_budget() const { return wire_.size() >= budget_; }
    /// Serializes one frame into the coalescing buffer.
    void stage(const FrameHeader& hdr, const DataBatch& b, WireFrame&& f);
    /// Writes the buffer in one write(2) — or nothing when `dead` — and
    /// hands every staged frame to `settle(frame, landed)`.  Returns true
    /// when the write broke off mid-stream (the stream is desynchronized).
    template <class Settle>
    bool flush(bool dead, LinkCounters& n, Settle&& settle);
    /// Writer death mid-frame: half the serialized frame hits the wire.
    void write_torn(const FrameHeader& hdr, const DataBatch& b,
                    LinkCounters& n);
    bool write_raw(const void* data, std::size_t len, LinkCounters& n,
                   std::size_t link);

   private:
    /// A serialized-but-unflushed frame in the coalescing buffer.
    struct Staged {
      std::size_t offset = 0;  ///< byte offset within wire_
      std::size_t size = 0;
      WireFrame frame;
    };

    UniqueFd fd_;
    std::size_t budget_;
    std::vector<char> wire_;
    std::vector<Staged> staged_;
  };

  /// Read side: one non-blocking read fd plus the partial-read offset.
  class Reader {
   public:
    explicit Reader(UniqueFd fd) : fd_(std::move(fd)) {}
    int fd() const { return fd_.get(); }
    ReadStatus read(void* dst, std::size_t len, bool mid_frame);
    /// Closes the read end: a concurrent write then fails with EPIPE, and
    /// a writer blocked on a full kernel buffer fails instead of hanging.
    void hang_up() { fd_.reset(); }

   private:
    UniqueFd fd_;
    std::size_t got_ = 0;  ///< bytes of the current target received
  };

  static void check(const Options& opts);
  /// One connected, non-blocking socket pair per link.
  static std::pair<Writer, Reader> open(const Options& opts);

  /// The reader thread: poll(2) over every live link, servicing the
  /// readable ones, until each has reached EOF or corruption.
  template <class Rx, class Service, class Fail>
  static void read_loop(std::vector<Rx>& rxs, Service&& service, Fail&& fail);
};

using SocketLink = FramedLink<FdStreamPath>;
using SocketTransport = FramedTransport<FdStreamPath>;
extern template class FramedLink<FdStreamPath>;
extern template class FramedTransport<FdStreamPath>;

template <class Settle>
bool FdStreamPath::Writer::flush(bool dead, LinkCounters& n,
                                 Settle&& settle) {
  std::size_t written = 0;
  if (!dead) {
    written = io_write_all(fd_.get(), wire_.data(), wire_.size());
    n.writes.fetch_add(1, std::memory_order_relaxed);
    n.bytes.fetch_add(written, std::memory_order_relaxed);
  }
  // Nothing landed (typically EPIPE after the reader closed) leaves the
  // stream at a frame boundary: every frame is a clean send failure.
  for (auto& s : staged_)
    settle(s.frame, s.offset + s.size <= written ? Landed::kWhole
                    : s.offset < written         ? Landed::kCut
                                                 : Landed::kNever);
  const bool torn = written != 0 && written != wire_.size();
  staged_.clear();
  wire_.clear();
  return torn;
}

template <class Rx, class Service, class Fail>
void FdStreamPath::read_loop(std::vector<Rx>& rxs, Service&& service,
                             Fail&& fail) {
  // Busy/idle split for the live tier's obs report: parked in poll(2) is
  // idle, servicing connections is busy.
  obs::prof::WorkerClock clock(kReaderClock);
  std::vector<pollfd> pfds;
  std::vector<Rx*> live;
  for (;;) {
    pfds.clear();
    live.clear();
    for (auto& rx : rxs) {
      if (rx.done) continue;
      pfds.push_back(pollfd{rx.bytes.fd(), POLLIN, 0});
      live.push_back(&rx);
    }
    if (pfds.empty()) return;  // every connection reached EOF or corruption
    const std::uint64_t t_park = obs::prof::prof_now_ns();
    const int r = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    clock.add_idle_ns(obs::prof::prof_now_ns() - t_park);
    if (r < 0) {
      if (errno == EINTR) continue;
      // poll itself failed hard: every remaining stream is unreadable.
      for (auto* rx : live) fail(*rx);
      return;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k)
      if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) service(*live[k]);
  }
}

}  // namespace prism::core
