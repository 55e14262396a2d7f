#include "probes.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/clock.hpp"
#include "core/io_loop.hpp"
#include "core/shm_link.hpp"
#include "core/shm_ring.hpp"
#include "core/socket_link.hpp"
#include "core/transfer_protocol.hpp"
#include "spans.hpp"
#include "trace/causal.hpp"

namespace perfbench {

using prism::trace::EventKind;
using prism::trace::EventRecord;

CausalCheck::CausalCheck(std::uint32_t nodes)
    : nodes_(nodes),
      next_seq_(nodes, 0),
      sends_(static_cast<std::size_t>(nodes) * nodes * kTags, 0),
      recvs_(sends_.size(), 0) {}

bool CausalCheck::offer(const EventRecord& r) {
  if (!ok_) return false;
  if (r.node >= nodes_ || r.process != 0 || r.seq != next_seq_[r.node]) {
    ok_ = false;
    return false;
  }
  ++next_seq_[r.node];
  if (r.kind == EventKind::kSend || r.kind == EventKind::kRecv) {
    if (r.peer >= nodes_ || r.tag >= kTags) {
      ok_ = false;
      return false;
    }
    if (r.kind == EventKind::kSend) {
      ++sends_[channel(r.node, r.peer, r.tag)];
    } else {
      const std::size_t ch = channel(r.peer, r.node, r.tag);
      if (recvs_[ch] >= sends_[ch]) {
        ok_ = false;
        return false;
      }
      ++recvs_[ch];
    }
  }
  return true;
}

BenchTool::BenchTool(std::uint32_t nodes, std::size_t latency_capacity)
    : check_(nodes), latency_capacity_(latency_capacity) {
  latency_ns_.reserve(latency_capacity);
}

void BenchTool::consume(const EventRecord& r) {
  if (delivered_ % 64 == 0) {  // a span (when tracing) on every 64th
    spans::Span s("tool.consume");
    check_.offer(r);
  } else {
    check_.offer(r);
  }
  if (latency_ns_.size() < latency_capacity_) {
    const std::uint64_t now = prism::core::now_ns();
    latency_ns_.push_back(
        now > r.timestamp ? static_cast<double>(now - r.timestamp) : 0.0);
  }
  ++delivered_;
}

ProcUsage ProcUsage::now() {
  struct rusage ru {};
  ProcUsage u;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return u;
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
  };
  u.cpu_ns = ns(ru.ru_utime) + ns(ru.ru_stime);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                   static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

namespace {

/// Resident set from /proc/self/statm ("size resident ..." in pages), MiB.
double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long size = 0, resident = 0;
  const bool ok = std::fscanf(f, "%ld %ld", &size, &resident) == 2;
  std::fclose(f);
  return ok ? static_cast<double>(resident) *
                  static_cast<double>(::sysconf(_SC_PAGESIZE)) /
                  (1024.0 * 1024.0)
            : 0;
}

}  // namespace

double trimmed_resident_mb() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
  return resident_mb();
}

RssWatch::RssWatch()
    : start_mb_(trimmed_resident_mb()), peak_mb_(start_mb_), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          const double now = resident_mb();
          if (now > peak_mb_.load(std::memory_order_relaxed))
            peak_mb_.store(now, std::memory_order_relaxed);
        }
      }) {}

RssWatch::~RssWatch() { peak_mb(); }

double RssWatch::peak_mb() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    peak_mb_.store(std::max(peak_mb_.load(), resident_mb()));
  }
  return peak_mb_.load();
}

namespace {

double ns_per(std::chrono::steady_clock::time_point t0, std::size_t n) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
         static_cast<double>(n ? n : 1);
}

prism::core::FrameHeader header(std::size_t batch, std::size_t i) {
  prism::core::FrameHeader h;
  h.source_node = 0;
  h.t_sent_ns = i;
  h.record_count = batch;
  return h;
}

}  // namespace

double shm_frame_ns(std::size_t batch, std::size_t frames) {
  const std::size_t bytes = batch * sizeof(EventRecord);
  std::size_t cap = 1 << 16;
  while (cap < 4 * (bytes + sizeof(prism::core::FrameHeader))) cap <<= 1;
  prism::core::MappedSegment seg(prism::core::ShmRing::segment_bytes(cap));
  auto prod = prism::core::ShmRing::create(seg.data(), cap);
  auto cons = prism::core::ShmRing::attach(seg.data());
  const std::vector<EventRecord> payload(batch);
  std::vector<EventRecord> sink(batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    const auto h = header(batch, i);
    prism::core::FrameHeader in;
    if (!prod.try_write2(&h, sizeof h, payload.data(), bytes) ||
        !cons.try_read(&in, sizeof in) || !cons.try_read(sink.data(), bytes) ||
        in.record_count != batch)
      throw std::runtime_error("shm replay: frame lost");
  }
  return ns_per(t0, frames);
}

double socket_frame_ns(std::size_t batch, std::size_t frames) {
  const std::size_t bytes = batch * sizeof(EventRecord);
  auto [rfd, wfd] =
      prism::core::make_socket_pair(prism::core::SocketDomain::kUnix);
  const std::vector<EventRecord> payload(batch);
  std::vector<EventRecord> sink(batch);
  std::vector<char> wire(sizeof(prism::core::FrameHeader) + bytes);
  bool ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames && ok; ++i) {
    const auto h = header(batch, i);
    std::memcpy(wire.data(), &h, sizeof h);
    std::memcpy(wire.data() + sizeof h, payload.data(), bytes);
    prism::core::FrameHeader in;
    ok = prism::core::io_write_all(wfd, wire.data(), wire.size()) ==
             wire.size() &&
         prism::core::io_read_full(rfd, &in, sizeof in) == sizeof in &&
         prism::core::io_read_full(rfd, sink.data(), bytes) == bytes &&
         in.record_count == batch;
  }
  const double ns = ns_per(t0, frames);
  ::close(rfd);
  ::close(wfd);
  if (!ok) throw std::runtime_error("socket replay: frame lost");
  return ns;
}

double channel_frame_ns(std::size_t batch, std::size_t frames) {
  prism::core::DataLink link(1024);
  const std::vector<EventRecord> payload(batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    prism::core::DataBatch b;
    b.t_sent_ns = i;
    b.records = payload;
    link.push(prism::core::Message(std::move(b)));
    auto m = link.pop();
    if (!m || std::get<prism::core::DataBatch>(*m).records.size() != batch)
      throw std::runtime_error("channel replay: frame lost");
  }
  return ns_per(t0, frames);
}

double socket_link_frame_ns(std::size_t batch, std::size_t frames) {
  prism::core::TransferProtocol tp(prism::core::TpFlavor::kSocket, 1, 1, 1024);
  tp.enable_socket_backend();
  const std::vector<EventRecord> payload(batch);
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&tp, &payload, frames] {
    for (std::size_t i = 0; i < frames; ++i) {
      prism::core::DataBatch b;
      b.t_sent_ns = i;
      b.records = payload;
      if (!tp.data_link_for(0).push(prism::core::Message(std::move(b))))
        return;
    }
  });
  bool ok = true;
  for (std::size_t i = 0; i < frames && ok; ++i) {
    auto m = tp.receive_link(0).pop();
    const auto* b = m ? std::get_if<prism::core::DataBatch>(&*m) : nullptr;
    ok = b && b->records.size() == batch;
  }
  const double ns = ns_per(t0, frames);
  if (!ok) tp.close_data_links();  // unblocks the producer
  producer.join();
  if (!ok) throw std::runtime_error("socket link replay: frame lost");
  return ns;
}

OfferReplay replay_offers(const std::vector<EventRecord>& arrivals) {
  std::size_t released = 0;
  prism::trace::CausalReorderer reorderer(
      [&released](const EventRecord&) { ++released; });
  OfferReplay out;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& r : arrivals) {
    reorderer.offer(r);
    const std::size_t held = reorderer.held();
    if (held > out.peak_held) out.peak_held = held;
  }
  out.offer_ns = ns_per(t0, arrivals.size());
  out.all_released = released == arrivals.size() && reorderer.held() == 0;
  return out;
}

}  // namespace perfbench
