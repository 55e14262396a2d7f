// Fault flight recorder (DESIGN.md §14): a fixed-capacity lock-free ring of
// recent structured events from the live tier's failure paths — fault
// injections, retries, backpressure parks, stream-corrupt latches, dead-LIS
// drains, wire losses, tool isolations.  Post-mortems of chaos runs read the
// tail instead of re-running with lineage tracing on: the ring is always
// armed (like the metrics registry), costs a handful of relaxed atomics per
// event, and sits exclusively on cold paths — no per-record site records
// into it.
//
// Concurrency: multi-producer, snapshot-reader.  A producer claims a ticket
// with one fetch_add, invalidates the slot's seq, stores the event payload
// as atomic words with release (so each word carries the invalidation),
// then publishes seq = ticket + 1 (release).  The dump reads the words with
// acquire and keeps a slot only when its seq matched the expected ticket
// before *and* after the copy — a slot being
// rewritten mid-dump is skipped, never torn.  Two producers can collide on
// one slot only when the ring wraps a full lap during a single 64-byte
// write; the seq check degrades that to one dropped diagnostic event.
//
// With PRISM_OBS=OFF the recorder and the PRISM_OBS_FLIGHT macro compile
// away entirely, like every other obs plane.
#pragma once

#ifndef PRISM_OBS_ENABLED
#define PRISM_OBS_ENABLED 1
#endif

#if PRISM_OBS_ENABLED

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace prism::obs::live {

/// One structured event.  `category` buckets events for attribution math
/// ("wire_loss", "send_loss", "dead_loss", "lis_crash", "fault", "retry",
/// "backpressure", "stream_corrupt", "tool_isolated", "control_drop");
/// `detail` carries the site or kind name; `count` the records affected
/// (0 for point events); `node` the source node or tool index.
struct FlightEvent {
  std::uint64_t t_ns = 0;
  std::uint64_t count = 0;
  std::uint32_t node = 0;
  char category[20] = {};
  char detail[24] = {};
};

static_assert(std::is_trivially_copyable_v<FlightEvent>,
              "FlightEvent must stay ring-transportable");
static_assert(sizeof(FlightEvent) == 64, "one cache line per slot payload");

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `capacity` must be a nonzero power of two.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder the live-tier hook sites write into.
  static FlightRecorder& instance();

  /// Records one event.  Lock-free, callable from any thread.
  void record(std::string_view category, std::string_view detail,
              std::uint32_t node = 0, std::uint64_t count = 0) noexcept;

  /// Events recorded since construction / the last reset().
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire) -
           base_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// The most recent events, oldest first, bounded by `max` and by what the
  /// ring still holds.  Slots being rewritten concurrently are skipped.
  std::vector<FlightEvent> tail(std::size_t max = SIZE_MAX) const;

  /// Sum of `count` over the tail's events whose category equals `c`.
  std::uint64_t count_in_category(std::string_view c) const;
  /// Number of tail events whose category equals `c`.
  std::uint64_t events_in_category(std::string_view c) const;

  /// JSON dump of the tail:
  ///   {"recorded":N,"capacity":C,"events":[{"t_ns":..,"category":"..",
  ///    "detail":"..","node":..,"count":..},...]}
  /// This is what the scrape endpoint serves on /flight and what a
  /// degradation post-mortem attaches.
  std::string dump_json(std::size_t max = SIZE_MAX) const;

  /// Logically clears the ring (test isolation): events before the current
  /// head stop being visible to tail()/recorded().
  void reset() noexcept {
    base_.store(head_.load(std::memory_order_acquire),
                std::memory_order_release);
  }

 private:
  static constexpr std::size_t kEventWords =
      sizeof(FlightEvent) / sizeof(std::uint64_t);

  struct Slot {
    /// ticket + 1 of the last completed write; 0 = never written or
    /// mid-write (invalidated before the payload stores).
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kEventWords] = {};
  };

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> base_{0};
};

}  // namespace prism::obs::live

/// Records one flight event into the process recorder.  Cold paths only.
#define PRISM_OBS_FLIGHT(category, detail, node, count)               \
  ::prism::obs::live::FlightRecorder::instance().record(              \
      category, detail, static_cast<std::uint32_t>(node),             \
      static_cast<std::uint64_t>(count))

#else  // !PRISM_OBS_ENABLED — the recorder vanishes with the plane.

#define PRISM_OBS_FLIGHT(category, detail, node, count) ((void)0)

#endif  // PRISM_OBS_ENABLED
