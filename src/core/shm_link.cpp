#include "core/shm_link.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>

namespace prism::core {

// -------------------------------------------------------------- MappedSegment

MappedSegment::MappedSegment(std::size_t bytes) : bytes_(bytes) {
  // Anonymous + MAP_SHARED: no file, but the pages are genuinely shared with
  // any child forked after this, which is what the cross-process ring tests
  // rely on.  In-process use works identically.
  mem_ = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem_ == MAP_FAILED) {
    mem_ = nullptr;
    throw std::system_error(errno, std::generic_category(), "mmap");
  }
}

MappedSegment::~MappedSegment() {
  if (mem_ != nullptr) ::munmap(mem_, bytes_);
}

// ---------------------------------------------------------------- ShmRingPath

void ShmRingPath::check(const Options& opts) {
  if (!is_power_of_two(opts.ring_capacity))
    throw std::invalid_argument(
        "ShmTransport: ring_capacity must be a nonzero power of two");
  if (opts.ring_capacity < sizeof(FrameHeader) + sizeof(trace::EventRecord))
    throw std::invalid_argument(
        "ShmTransport: ring_capacity below one single-record frame");
}

std::pair<ShmRingPath::Writer, ShmRingPath::Reader> ShmRingPath::open(
    const Options& opts) {
  auto seg = std::make_unique<MappedSegment>(
      ShmRing::segment_bytes(opts.ring_capacity));
  Writer writer(ShmRing::create(seg->data(), opts.ring_capacity));
  const ShmRing consumer = ShmRing::attach(seg->data());
  return {std::move(writer), Reader(std::move(seg), consumer)};
}

bool ShmRingPath::Writer::make_room(std::size_t len, LinkCounters& n,
                                    [[maybe_unused]] std::size_t link) {
  if (len > ring_.capacity()) return false;
  if (ring_.free_bytes() >= len) return true;
  n.full_waits.fetch_add(1, std::memory_order_relaxed);
  PRISM_OBS_FLIGHT("backpressure", "shm_ring_full", link, 0);
  std::size_t rounds = 0;
  for (;;) {
    // A gone or poisoned ring frees no further space; bail instead of
    // spinning forever.  (The reader sets kConsumerGone *before* it stops
    // consuming for good, so this check is what unblocks a parked pump.)
    if (ring_.flags() & (ShmRing::kConsumerGone | ShmRing::kPoisoned))
      return false;
    if (ring_.free_bytes() >= len) return true;
    // The consumer is strictly draining: park progressively (yield first,
    // then sleep) — the wait is genuine backpressure, not a spin race.
    if (++rounds < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ShmRingPath::Writer::publish(const FrameHeader& hdr, const DataBatch& b,
                                  LinkCounters& n) {
  const std::size_t payload = b.records.size() * sizeof(trace::EventRecord);
  ring_.try_write2(&hdr, sizeof hdr,
                   b.records.empty() ? nullptr : b.records.data(), payload);
  n.bytes.fetch_add(sizeof hdr + payload, std::memory_order_relaxed);
}

void ShmRingPath::Writer::write_torn(const FrameHeader& hdr,
                                     const DataBatch& b, LinkCounters& n) {
  // The reader then finds a valid header whose payload never completes.
  const std::size_t half = b.records.size() * sizeof(trace::EventRecord) / 2;
  if (ring_.free_bytes() < sizeof hdr + half) return;
  ring_.try_write2(&hdr, sizeof hdr, b.records.data(), half);
  n.bytes.fetch_add(sizeof hdr + half, std::memory_order_relaxed);
}

bool ShmRingPath::Writer::write_raw(const void* data, std::size_t len,
                                    LinkCounters& n, std::size_t link) {
  return make_room(len, n, link) && ring_.try_write(data, len);
}

ReadStatus ShmRingPath::Reader::read(void* dst, std::size_t len,
                                     bool mid_frame) {
  if (ring_.try_read(dst, len)) return ReadStatus::kDone;
  const std::uint32_t fl = ring_.flags();
  if ((fl & (ShmRing::kProducerDone | ShmRing::kPoisoned)) == 0)
    return ReadStatus::kAgain;
  // A lifecycle flag is released after the producer's final byte, so one
  // more read is conclusive: everything still in flight is visible now.
  if (ring_.try_read(dst, len)) return ReadStatus::kDone;
  // Nothing more will ever arrive.  A poisoned stream, a frame cut mid-
  // payload, or stray bytes short of a header all mean corruption; a bare
  // producer-done ring at a frame boundary is clean EOF.
  return (fl & ShmRing::kPoisoned) != 0 || mid_frame || ring_.readable() != 0
             ? ReadStatus::kTruncated
             : ReadStatus::kEof;
}

template class FramedLink<ShmRingPath>;
template class FramedTransport<ShmRingPath>;

}  // namespace prism::core
