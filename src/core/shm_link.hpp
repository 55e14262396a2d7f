// The shared-memory byte path of the framed-link engine (framed_link.hpp):
// the `tp = shm` backend (§2.2.3 leaves room for "custom protocols";
// DeWiz-style decoupled event modules over a shared-memory data plane are
// the precedent).  Where the fd stream pays a syscall and two kernel copies
// per flush, this path moves frames through one lock-free SPSC ring
// (shm_ring.hpp) per link in a MAP_SHARED segment: the steady-state data
// path is two user-space memcpys and two release stores — zero syscalls,
// zero kernel copies, zero mallocs on the producer side (the consumer's
// batch storage is recycled through io_loop's BatchArena).
//
// What this policy owns is only how bytes move through the ring:
//   - write side: a zero-copy publish (try_write2 lands header and records
//     straight in the segment behind one release store); a producer that
//     finds the ring full parks — yield first, then sleep — until the
//     consumer frees space or hangs up (kConsumerGone); a frame larger than
//     the ring is refused up front instead of wedging the pump.  Closing
//     sets kProducerDone; a mid-frame death sets kPoisoned.
//   - read side: all-or-nothing reads; once kProducerDone or kPoisoned is
//     visible and nothing more can be read, the stream has ended — cleanly
//     at a frame boundary of a producer-done ring, as truncation otherwise.
//     The reader thread polls every ring round-robin, spinning briefly,
//     then yielding, then sleeping, so an idle plane costs nothing.
// Fault sites: kShmPush / kShmFrame.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/framed_link.hpp"
#include "core/shm_ring.hpp"

namespace prism::core {

/// RAII anonymous MAP_SHARED mapping — shareable across fork(), so the ring
/// torture tests (and a future multi-process tier) can put a producer and a
/// consumer in different address spaces.  Throws std::system_error on mmap
/// failure.
class MappedSegment {
 public:
  explicit MappedSegment(std::size_t bytes);
  ~MappedSegment();
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  void* data() const { return mem_; }
  std::size_t size() const { return bytes_; }

 private:
  void* mem_ = nullptr;
  std::size_t bytes_ = 0;
};

/// The shared-memory byte policy of FramedLink / FramedTransport.
struct ShmRingPath {
  using Options = ShmOptions;
  static constexpr fault::FaultSite kSendSite = fault::FaultSite::kShmPush;
  static constexpr fault::FaultSite kFrameSite = fault::FaultSite::kShmFrame;
  static constexpr std::uint64_t kBackoffSalt = 0x5bb0;
  static constexpr bool kCoalesces = false;
  static constexpr const char* kPumpClock = "io.shm.pump";
  static constexpr const char* kReaderClock = "io.shm.reader";
  static constexpr const char* kStreamName = "shm_ring";

  /// Write side: the producer view of the link's ring.
  class Writer {
   public:
    explicit Writer(ShmRing ring) : ring_(ring) {}

    /// kProducerDone is released after every byte this writer published,
    /// so a reader that observes the flag and then drains sees it all.
    void close() { ring_.set_flags(ShmRing::kProducerDone); }
    void poison() { ring_.set_flags(ShmRing::kPoisoned); }
    /// Parks until `len` bytes fit.  False when they never can: larger than
    /// the ring, or the consumer is gone or the stream died.
    bool make_room(std::size_t len, LinkCounters& n, std::size_t link);
    /// Zero-copy publish: header and records land directly in the mapped
    /// segment, and one release store makes the whole frame visible.
    void publish(const FrameHeader& hdr, const DataBatch& b, LinkCounters& n);
    /// Writer death mid-frame: the header and half the payload are
    /// published (if they fit), then the engine poisons the ring.
    void write_torn(const FrameHeader& hdr, const DataBatch& b,
                    LinkCounters& n);
    bool write_raw(const void* data, std::size_t len, LinkCounters& n,
                   std::size_t link);

   private:
    ShmRing ring_;
  };

  /// Read side: the consumer view of the ring, and the segment it lives in.
  class Reader {
   public:
    Reader(std::unique_ptr<MappedSegment> seg, ShmRing ring)
        : seg_(std::move(seg)), ring_(ring) {}
    ReadStatus read(void* dst, std::size_t len, bool mid_frame);
    /// Consumer gone: a pump parked on a full ring observes the flag and
    /// fails its send cleanly.
    void hang_up() { ring_.set_flags(ShmRing::kConsumerGone); }

   private:
    std::unique_ptr<MappedSegment> seg_;
    ShmRing ring_;
  };

  /// Throws std::invalid_argument on a ring capacity that is zero, not a
  /// power of two, or too small to ever hold a single-record frame.
  static void check(const Options& opts);
  /// One ring in a fresh mapped segment per link.
  static std::pair<Writer, Reader> open(const Options& opts);

  /// The reader thread: services every live ring round-robin, backing off
  /// (spin, yield, sleep) while all of them are idle.
  template <class Rx, class Service, class Fail>
  static void read_loop(std::vector<Rx>& rxs, Service&& service, Fail&&);
};

using ShmLink = FramedLink<ShmRingPath>;
using ShmTransport = FramedTransport<ShmRingPath>;
extern template class FramedLink<ShmRingPath>;
extern template class FramedTransport<ShmRingPath>;

template <class Rx, class Service, class Fail>
void ShmRingPath::read_loop(std::vector<Rx>& rxs, Service&& service,
                            Fail&&) {
  // Busy/idle split for the live tier's obs report: the yield/sleep rungs
  // of the backoff ladder are idle; spinning and draining rings are busy
  // (a spinning reader occupies its core whether or not frames arrive).
  obs::prof::WorkerClock clock(kReaderClock);
  std::size_t idle = 0;
  for (;;) {
    bool any = false;
    bool all_done = true;
    for (auto& rx : rxs) {
      if (rx.done) continue;
      all_done = false;
      if (service(rx)) any = true;
    }
    if (all_done) return;
    if (any) {
      idle = 0;
      continue;
    }
    // Idle backoff: re-poll immediately a few times (a producer is usually
    // mid-publish), then yield, then sleep so an idle plane costs nothing.
    if (++idle < 16) continue;
    const std::uint64_t t_park = obs::prof::prof_now_ns();
    if (idle < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    clock.add_idle_ns(obs::prof::prof_now_ns() - t_park);
  }
}

}  // namespace prism::core
