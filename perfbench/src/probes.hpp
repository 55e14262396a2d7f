// What the benchmark attaches to, and measures beside, the program under
// test: the consuming tool with its correctness check, process resource
// readings, and isolated replays of single layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/tool.hpp"
#include "trace/record.hpp"

namespace perfbench {

/// Incremental form of prism::trace::first_causal_violation: program order
/// per (node, process) stream, and the n-th receive on a channel
/// (from, to, tag) only after the n-th send on it.  Sized for the traces
/// the benchmark generates (process 0, tags below kTags); any record
/// outside that shape is itself a violation.
class CausalCheck {
 public:
  static constexpr std::uint16_t kTags = 16;
  explicit CausalCheck(std::uint32_t nodes);
  /// Returns false, and latches the failure, on the first violation.
  bool offer(const prism::trace::EventRecord& r);
  bool ok() const { return ok_; }

 private:
  std::size_t channel(std::uint32_t from, std::uint32_t to,
                      std::uint16_t tag) const {
    return (static_cast<std::size_t>(from) * nodes_ + to) * kTags + tag;
  }
  std::uint32_t nodes_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<std::uint64_t> sends_, recvs_;
  bool ok_ = true;
};

/// The benchmark's tool: counts deliveries, checks causal order as records
/// arrive, and, when given room, keeps the due-time -> consume latency of
/// each record.  Called only from the ISM's dispatch thread; read it after
/// the environment's stop() has joined that thread.
class BenchTool final : public prism::core::Tool {
 public:
  /// `latency_capacity` > 0 keeps one latency sample (ns) per delivered
  /// record, up to that many.
  BenchTool(std::uint32_t nodes, std::size_t latency_capacity);
  std::string_view name() const override { return "perfbench"; }
  void consume(const prism::trace::EventRecord& r) override;

  std::uint64_t delivered() const { return delivered_; }
  bool causal_ok() const { return check_.ok(); }
  const std::vector<double>& latency_ns() const { return latency_ns_; }

 private:
  CausalCheck check_;
  std::vector<double> latency_ns_;
  std::size_t latency_capacity_;
  std::uint64_t delivered_ = 0;
};

/// Process CPU time (user + system) and context switches so far.
struct ProcUsage {
  std::uint64_t cpu_ns = 0;
  std::uint64_t ctx_switches = 0;
  static ProcUsage now();
};

/// The process's resident set, in MiB, after handing the allocator's free
/// memory back to the system (malloc_trim).
double trimmed_resident_mb();

/// Resident set of the process over one leg, in MiB: the trimmed resident
/// set when constructed, then the largest value a thread of its own reads
/// from /proc/self/statm every 5 ms until peak_mb().
class RssWatch {
 public:
  RssWatch();
  ~RssWatch();
  RssWatch(const RssWatch&) = delete;
  RssWatch& operator=(const RssWatch&) = delete;
  double start_mb() const { return start_mb_; }
  /// Stops sampling and returns the largest resident set seen.
  double peak_mb();

 private:
  double start_mb_;
  std::atomic<double> peak_mb_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it reads the members above
};

/// Isolated replays of one layer, ns per frame of `batch` records: a frame
/// written into and read back out of an ShmRing, through an AF_UNIX
/// socketpair, or pushed and popped through an in-process DataLink.
double shm_frame_ns(std::size_t batch, std::size_t frames);
double socket_frame_ns(std::size_t batch, std::size_t frames);
double channel_frame_ns(std::size_t batch, std::size_t frames);
/// The socket transport itself: frames streamed by one thread into a
/// TransferProtocol whose socket backend is on (SocketLink pump, AF_UNIX
/// wire, shared reader, egress buffer) and popped by another.  ns per
/// frame.
double socket_link_frame_ns(std::size_t batch, std::size_t frames);

/// Replays `arrivals` through a CausalReorderer.  Reports ns per offer()
/// and the largest number of records held back at once.
struct OfferReplay {
  double offer_ns = 0;
  std::size_t peak_held = 0;
  bool all_released = false;
};
OfferReplay replay_offers(const std::vector<prism::trace::EventRecord>& arrivals);

}  // namespace perfbench
