// Lock-free SPSC byte ring over a shared-memory segment — the primitive
// under the `tp = shm` transport (DESIGN.md §12).
//
// One producer appends variable-length frames, one consumer removes them, in
// FIFO order, with no locks, no syscalls, and no allocation on either side:
// the steady-state data path is two memcpys (in and out of the mapped
// segment) plus one release store per side.  The layout is a fixed control
// block followed by a power-of-two data area, all inside one caller-provided
// mapping, so the same ring works within a process, across fork() over a
// MAP_SHARED mapping, or in a named shm segment.
//
// Index scheme: `head` counts bytes ever produced, `tail` bytes ever
// consumed — both monotonic, never wrapped.  A position maps to the data
// area as `pos & (capacity - 1)`, which is why the capacity must be a power
// of two; occupancy is `head - tail`, correct across the uint64 wrap.
//
// Memory ordering (the happens-before edges everything else rests on):
//   - producer: memcpy payload, then head.store(release).  The consumer's
//     head.load(acquire) therefore observes fully-written bytes only.
//   - consumer: memcpy out, then tail.store(release).  The producer's
//     tail.load(acquire) therefore reuses bytes only after they were read.
//   - flags use fetch_or(release) / load(acquire): a flag set after a write
//     (e.g. producer-done after the final frame) is observed no earlier
//     than the write itself.
// Each side additionally keeps a *view-local* cache of the opposite index
// and re-loads it only when the cached value is insufficient, so an
// uncontended ring does not ping-pong the head/tail cache lines.
//
// False sharing: head, tail, and flags each sit on their own
// alignas(64) cache line, so producer progress never invalidates the line
// the consumer spins on (and vice versa).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace prism::core {

constexpr bool is_power_of_two(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

class ShmRing {
 public:
  /// Lifecycle flags published through the control block (visible across
  /// processes sharing the mapping).
  static constexpr std::uint32_t kProducerDone = 1u << 0;  ///< clean EOF
  static constexpr std::uint32_t kPoisoned = 1u << 1;      ///< stream corrupt
  static constexpr std::uint32_t kConsumerGone = 1u << 2;  ///< reader quit

  /// Control block at the start of the segment.  Atomics over shared
  /// memory must be address-free; both are lock-free uint types everywhere
  /// this code builds.
  struct Control {
    /// Stored last with release at create(), loaded with acquire at
    /// attach(): a valid magic publishes the initialized block.
    std::atomic<std::uint64_t> magic;
    std::uint64_t capacity = 0;
    /// Bytes ever produced.  Producer-written, consumer-read.
    alignas(64) std::atomic<std::uint64_t> head;
    /// Bytes ever consumed.  Consumer-written, producer-read.
    alignas(64) std::atomic<std::uint64_t> tail;
    /// Lifecycle flags (kProducerDone | kPoisoned | kConsumerGone).
    alignas(64) std::atomic<std::uint32_t> flags;
  };
  static_assert(std::is_trivially_destructible_v<Control>);

  static constexpr std::uint64_t kMagic = 0x53484d52494e4731ull;  // "SHMRING1"

  /// Bytes of mapping needed for a ring of `capacity` data bytes.
  static constexpr std::size_t segment_bytes(std::size_t capacity) {
    return sizeof(Control) + capacity;
  }

  /// Placement-initializes a ring over `mem` (which must hold
  /// segment_bytes(capacity) writable bytes).  Throws on a capacity that is
  /// zero or not a power of two.
  static ShmRing create(void* mem, std::size_t capacity) {
    if (!is_power_of_two(capacity))
      throw std::invalid_argument(
          "ShmRing: capacity must be a nonzero power of two");
    auto* ctl = new (mem) Control;
    ctl->magic.store(0, std::memory_order_relaxed);
    ctl->capacity = capacity;
    ctl->head.store(0, std::memory_order_relaxed);
    ctl->tail.store(0, std::memory_order_relaxed);
    ctl->flags.store(0, std::memory_order_relaxed);
    // Publish the magic last: an attach() racing create() over the same
    // segment must not see a valid magic over uninitialized indices.
    ctl->magic.store(kMagic, std::memory_order_release);
    return ShmRing(ctl);
  }

  /// Attaches to a ring previously create()d in `mem` (e.g. the other side
  /// of a fork).  The control block is untrusted shared state: magic and
  /// capacity are validated before use.
  static ShmRing attach(void* mem) {
    auto* ctl = static_cast<Control*>(mem);
    if (ctl->magic.load(std::memory_order_acquire) != kMagic)
      throw std::invalid_argument("ShmRing: bad segment magic");
    if (!is_power_of_two(ctl->capacity))
      throw std::invalid_argument("ShmRing: corrupt capacity");
    return ShmRing(ctl);
  }

  ShmRing() = default;

  std::size_t capacity() const { return ctl_->capacity; }

  // ---- producer side ------------------------------------------------------

  /// Free space as of the last consumer-index refresh (conservative).
  std::size_t free_bytes() const {
    return ctl_->capacity -
           static_cast<std::size_t>(
               ctl_->head.load(std::memory_order_relaxed) -
               ctl_->tail.load(std::memory_order_acquire));
  }

  /// Appends one frame made of two spans (header + payload) with a single
  /// publication: the consumer sees either nothing or the whole frame.
  /// Returns false — writing nothing — when the frame does not fit now.
  bool try_write2(const void* a, std::size_t alen, const void* b,
                  std::size_t blen) {
    const std::size_t len = alen + blen;
    const std::uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    if (ctl_->capacity - (head - tail_cache_) < len) {
      tail_cache_ = ctl_->tail.load(std::memory_order_acquire);
      if (ctl_->capacity - (head - tail_cache_) < len) return false;
    }
    copy_in(head, a, alen);
    copy_in(head + alen, b, blen);
    ctl_->head.store(head + len, std::memory_order_release);
    return true;
  }

  bool try_write(const void* src, std::size_t len) {
    return try_write2(src, len, nullptr, 0);
  }

  // ---- consumer side ------------------------------------------------------

  /// Bytes available to read as of the last producer-index refresh.
  std::size_t readable() const {
    return static_cast<std::size_t>(
        ctl_->head.load(std::memory_order_acquire) -
        ctl_->tail.load(std::memory_order_relaxed));
  }

  /// Removes exactly `len` bytes, or nothing (all-or-nothing).  The caller
  /// composes frame reads as header-then-payload; a payload shorter than its
  /// header promised simply fails here until the producer publishes it.
  bool try_read(void* dst, std::size_t len) {
    const std::uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    if (head_cache_ - tail < len) {
      head_cache_ = ctl_->head.load(std::memory_order_acquire);
      if (head_cache_ - tail < len) return false;
    }
    copy_out(tail, dst, len);
    ctl_->tail.store(tail + len, std::memory_order_release);
    return true;
  }

  // ---- lifecycle ----------------------------------------------------------

  /// Sets flags with release ordering: anything written before the call is
  /// visible to a side that observes the flag.
  void set_flags(std::uint32_t f) {
    ctl_->flags.fetch_or(f, std::memory_order_release);
  }
  std::uint32_t flags() const {
    return ctl_->flags.load(std::memory_order_acquire);
  }

 private:
  explicit ShmRing(Control* ctl)
      : ctl_(ctl),
        data_(reinterpret_cast<char*>(ctl) + sizeof(Control)),
        mask_(ctl->capacity - 1) {}

  /// Two-part copy across the wrap point; `pos` is the monotonic index.
  void copy_in(std::uint64_t pos, const void* src, std::size_t len) {
    if (len == 0) return;
    const std::size_t off = static_cast<std::size_t>(pos & mask_);
    const std::size_t first = std::min(len, ctl_->capacity - off);
    std::memcpy(data_ + off, src, first);
    if (first < len)
      std::memcpy(data_, static_cast<const char*>(src) + first, len - first);
  }

  void copy_out(std::uint64_t pos, void* dst, std::size_t len) {
    if (len == 0) return;
    const std::size_t off = static_cast<std::size_t>(pos & mask_);
    const std::size_t first = std::min(len, ctl_->capacity - off);
    std::memcpy(dst, data_ + off, first);
    if (first < len)
      std::memcpy(static_cast<char*>(dst) + first, data_, len - first);
  }

  Control* ctl_ = nullptr;
  char* data_ = nullptr;
  std::uint64_t mask_ = 0;
  /// View-local snapshots of the opposite side's index (see header comment).
  std::uint64_t tail_cache_ = 0;
  std::uint64_t head_cache_ = 0;
};

}  // namespace prism::core
