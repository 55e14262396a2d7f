// Shared wire plumbing for the framed-link engine (framed_link.hpp).
//
// Every real TP byte path — the fd stream under `tp = socket` and the SPSC
// ring under `tp = shm` — carries the same wire format: length-prefixed
// frames of trivially-copyable EventRecords behind a fixed 24-byte header.
// This header hosts that format, the BatchArena the reader side stages
// payloads in, and the fd read/write loops.
//
// The write loop treats a 0-byte ::write return as a hard link failure
// instead of retrying: POSIX permits a zero return on some targets, and
// `while (written < len)` with `n == 0` would never advance.  A short return
// from io_write_all therefore always means "the link is broken at `written`
// bytes" — at a frame boundary if nothing of the current frame landed,
// mid-frame (stream desynchronized) otherwise.
//
// Both loops retry EINTR and, for non-blocking fds, park in poll(2) on
// EAGAIN so callers keep blocking semantics without caring which fd flavor
// they hold.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/transfer_protocol.hpp"

namespace prism::core {

/// Process-wide freelist of record-batch storage for the reader side of the
/// real transports.  The framed-link reader must materialize a
/// std::vector<EventRecord> per inbound frame; without pooling that is one
/// heap allocation per frame in steady state.  Readers acquire() staging
/// storage here and the ISM release()s a batch's storage once its records
/// have been consumed (Ism::process_batch), so after warm-up the
/// reader->ISM->reader cycle recycles the same capacity and the read path
/// allocates nothing.  Bounded (kMaxPooled vectors) so a burst can never
/// turn the pool into a leak; overflow storage is simply freed.
/// Thread-safe; the lock is uncontended in practice (one reader thread and
/// one ISM processor trade vectors).
class BatchArena {
 public:
  static BatchArena& instance();

  /// A vector sized to `records` (unspecified contents) — pooled capacity
  /// when available, freshly allocated otherwise.
  std::vector<trace::EventRecord> acquire(std::size_t records);

  /// An *empty* vector with capacity >= `capacity` — the push_back-style
  /// counterpart to acquire().  Producers that build batches incrementally
  /// (BufferedLis flushes, daemon drains) use this so a warmed pool makes
  /// batch construction allocation-free.
  std::vector<trace::EventRecord> acquire_reserved(std::size_t capacity);

  /// Returns a consumed batch's storage to the pool.  Empty-capacity
  /// vectors are ignored; beyond kMaxPooled the storage is freed.
  void release(std::vector<trace::EventRecord>&& storage);

  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served from the pool
    std::uint64_t releases = 0;  ///< vectors accepted back into the pool
  };
  Stats stats() const;

  static constexpr std::size_t kMaxPooled = 64;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<trace::EventRecord>> pool_;
  Stats stats_;
};

/// Magic leading every wire frame ("PIPE", kept from the first framed link
/// so every byte path stays wire-compatible).
inline constexpr std::uint32_t kFrameMagic = 0x50495045;

/// On-wire frame header.  `record_count` is untrusted input on the read
/// side: readers must bound-check it before allocating.
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t source_node = 0;
  std::uint64_t t_sent_ns = 0;
  std::uint64_t record_count = 0;
};
static_assert(sizeof(FrameHeader) == 24, "wire format");

/// Serialized size of one batch on the wire.
inline std::size_t frame_wire_size(const DataBatch& b) {
  return sizeof(FrameHeader) + b.records.size() * sizeof(trace::EventRecord);
}

/// Serializes `b` as one frame appended to `wire`.  `corrupt_magic` flips
/// low magic bits (fault injection: the frame ships, the reader must catch
/// it).
void append_frame(std::vector<char>& wire, const DataBatch& b,
                  bool corrupt_magic = false);

/// Writes up to `len` bytes; returns how many actually landed.  Retries
/// EINTR, parks in poll(POLLOUT) on EAGAIN (non-blocking fds), and treats a
/// 0-byte ::write as a hard link failure (no spin).  A short return
/// distinguishes a clean failure (`0` written, stream still at a frame
/// boundary) from a mid-frame failure (stream desynchronized).
std::size_t io_write_all(int fd, const void* data, std::size_t len);

/// Reads exactly `len` bytes unless EOF/error cuts the stream short;
/// returns how many were read (a short return at a nonzero offset means a
/// truncated frame).  Retries EINTR and parks in poll(POLLIN) on EAGAIN.
std::size_t io_read_full(int fd, void* data, std::size_t len);

/// Sets the process's SIGPIPE disposition to SIG_IGN exactly once (shared
/// std::call_once), so writes to a dead peer surface as EPIPE.  A handler
/// the application installs after the first call is never clobbered.
void ignore_sigpipe_once();

}  // namespace prism::core
