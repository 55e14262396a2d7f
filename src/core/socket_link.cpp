#include "core/socket_link.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <system_error>

namespace prism::core {

namespace {

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::system_error(errno, std::generic_category(), "fcntl");
}

}  // namespace

std::pair<int, int> make_socket_pair(SocketDomain domain) {
  if (domain == SocketDomain::kUnix) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw std::system_error(errno, std::generic_category(), "socketpair");
    return {sv[0], sv[1]};
  }
  // TCP loopback: listen on an ephemeral port, connect, accept.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0)
    throw std::system_error(errno, std::generic_category(), "socket");
  int client = -1;
  int accepted = -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t alen = sizeof addr;
  const int err = [&]() -> int {
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      return errno;
    if (::listen(listener, 1) != 0) return errno;
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &alen) !=
        0)
      return errno;
    client = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client < 0) return errno;
    if (::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      return errno;
    accepted = ::accept(listener, nullptr, nullptr);
    if (accepted < 0) return errno;
    // Batches are latency-carrying telemetry: never let Nagle sit on a
    // coalesced frame.
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return 0;
  }();
  close_quiet(listener);
  if (err != 0) {
    close_quiet(client);
    close_quiet(accepted);
    throw std::system_error(err, std::generic_category(),
                            "tcp loopback pair");
  }
  return {accepted, client};
}

// ---------------------------------------------------------------- FdStreamPath

void FdStreamPath::check(const Options& opts) {
  if (opts.coalesce_byte_budget == 0)
    throw std::invalid_argument("SocketTransport: coalesce_byte_budget 0");
}

std::pair<FdStreamPath::Writer, FdStreamPath::Reader> FdStreamPath::open(
    const Options& opts) {
  ignore_sigpipe_once();
  const auto [read_fd, write_fd] = make_socket_pair(opts.domain);
  // Owned from here on: a throw below closes both ends.
  Reader reader{UniqueFd(read_fd)};
  Writer writer{UniqueFd(write_fd), opts.coalesce_byte_budget};
  set_nonblocking(read_fd);
  set_nonblocking(write_fd);
  return {std::move(writer), std::move(reader)};
}

void FdStreamPath::Writer::stage(const FrameHeader& hdr, const DataBatch& b,
                                 WireFrame&& f) {
  Staged s;
  s.offset = wire_.size();
  append_frame(wire_, b, /*corrupt_magic=*/hdr.magic != kFrameMagic);
  s.size = wire_.size() - s.offset;
  s.frame = std::move(f);
  staged_.push_back(std::move(s));
}

void FdStreamPath::Writer::write_torn(const FrameHeader&, const DataBatch& b,
                                      LinkCounters&) {
  std::vector<char> wire;
  append_frame(wire, b);
  io_write_all(fd_.get(), wire.data(), wire.size() / 2);
}

bool FdStreamPath::Writer::write_raw(const void* data, std::size_t len,
                                     LinkCounters&, std::size_t) {
  return io_write_all(fd_.get(), data, len) == len;
}

ReadStatus FdStreamPath::Reader::read(void* dst, std::size_t len,
                                      bool mid_frame) {
  char* const p = static_cast<char*>(dst);
  while (got_ < len) {
    const ssize_t n = ::read(fd_.get(), p + got_, len - got_);
    if (n > 0) {
      got_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return ReadStatus::kAgain;  // drained for now; back to poll
    // EOF or hard error: clean only at a frame boundary.
    return mid_frame || got_ != 0 ? ReadStatus::kTruncated : ReadStatus::kEof;
  }
  got_ = 0;
  return ReadStatus::kDone;
}

template class FramedLink<FdStreamPath>;
template class FramedTransport<FdStreamPath>;

}  // namespace prism::core
