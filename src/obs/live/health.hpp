// Live health snapshots for the streaming telemetry plane (DESIGN.md §14).
//
// Everything the obs stack produced so far is post-hoc: reports render after
// replicate() returns, lineage closes its ledger at stop().  The paper's
// evaluate→feedback loop — and the ROADMAP's model-predictive steering item —
// needs telemetry *while the IS runs*, the way ISIS exposes live instrument
// state through control endpoints and ISAAC does steering-grade in-situ
// telemetry.  HealthSnapshot is that contract: a versioned, trivially
// copyable point-in-time view of the pipeline's conservation ledger,
// degradation state, profiling tallies, and metrics-registry deltas, built
// by a TelemetrySampler on its own thread and published through a seq-locked
// double buffer so readers (scrape endpoint, future steering controller)
// never block the sampler or the hot path.
//
// The snapshot is a fixed-size POD on purpose: a seqlock reader races the
// writer by design, and the only way that race stays defined behavior (and
// TSan-clean) is to move the payload word-by-word through relaxed atomics —
// impossible with heap-owning members.  Names are fixed-capacity char
// arrays; overflow truncates and is counted, never reallocated.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace prism::obs::live {

/// Bumped whenever HealthSnapshot's layout or field meaning changes, so a
/// steering controller (or an external scraper of the JSON form) can reject
/// snapshots it does not understand.
inline constexpr std::uint32_t kHealthSnapshotVersion = 2;

/// Conservation ledger of one pipeline stage.  The identity
///   admitted == completed + lost + in_flight
/// holds in *every* snapshot, not only at quiescence: in_flight is the
/// residue by definition, and the collector reads the three independent
/// counters in completed → lost → admitted order, so a record counted as
/// completed or lost was always already counted as admitted (both states are
/// reachable only after admission, and they are mutually exclusive) — the
/// residue can never go negative.  `torn` latches if it ever would, which
/// indicates a collector ordering bug, not measurement noise.
struct StageHealth {
  char name[16] = {};
  std::uint64_t admitted = 0;   ///< records accepted into this stage
  std::uint64_t completed = 0;  ///< records that left it downstream
  std::uint64_t lost = 0;       ///< records destroyed inside it (attributed)
  std::uint64_t in_flight = 0;  ///< residue: admitted - completed - lost
  std::uint64_t refused = 0;    ///< offered but never admitted (overflow drops)
  std::uint32_t torn = 0;       ///< residue computed negative (ordering bug)
  std::uint32_t pad_ = 0;

  bool conserved() const {
    return admitted == completed + lost + in_flight && torn == 0;
  }
};

/// One metrics-registry counter carried in the snapshot: last sampled value
/// plus the delta against the previous sample (the rate numerator a
/// controller wants without keeping history).
struct CounterHealth {
  char name[56] = {};
  std::uint64_t value = 0;
  std::uint64_t delta = 0;
};

struct HealthSnapshot {
  static constexpr std::uint32_t kMaxStages = 8;
  static constexpr std::uint32_t kMaxCounters = 48;

  std::uint32_t version = kHealthSnapshotVersion;
  std::uint32_t stage_count = 0;
  std::uint64_t seq = 0;        ///< sample number, 1-based, monotonic
  std::uint64_t t_wall_ns = 0;  ///< steady-clock time the sample was taken

  // Degradation state (mirrors core::DegradationReport field-for-field,
  // federation levels included; the collector fills these from the same
  // counters, in loss-before-admission read order).
  std::uint32_t lises_dead = 0;
  std::uint32_t degraded = 0;  ///< any degradation field nonzero
  std::uint64_t tools_failed = 0;
  std::uint64_t records_lost_send = 0;
  std::uint64_t records_lost_dead = 0;
  std::uint64_t records_lost_wire = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t holdback_expired = 0;
  std::uint32_t shards_dead = 0;
  std::uint32_t pad_ = 0;
  std::uint64_t records_lost_uplink = 0;
  std::uint64_t records_lost_agg = 0;

  // Self-profiling tallies (obs/prof): process-wide allocator interposition
  // counts and the flight recorder's event ticker.
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_count = 0;
  std::uint64_t flight_events = 0;  ///< FlightRecorder events recorded so far

  StageHealth stages[kMaxStages] = {};

  std::uint32_t counter_count = 0;
  std::uint32_t counters_truncated = 0;  ///< registry counters beyond the cap
  CounterHealth counters[kMaxCounters] = {};

  /// Stage row by name, or nullptr.
  const StageHealth* stage(std::string_view n) const {
    for (std::uint32_t i = 0; i < stage_count && i < kMaxStages; ++i)
      if (n == stages[i].name) return &stages[i];
    return nullptr;
  }

  /// Counter row by (possibly truncated) name, or nullptr.
  const CounterHealth* counter(std::string_view n) const {
    for (std::uint32_t i = 0; i < counter_count && i < kMaxCounters; ++i)
      if (n == counters[i].name) return &counters[i];
    return nullptr;
  }

  /// True when every stage row satisfies the conservation identity.
  bool conserved() const {
    for (std::uint32_t i = 0; i < stage_count && i < kMaxStages; ++i)
      if (!stages[i].conserved()) return false;
    return true;
  }

  /// Appends a stage row (truncating the name to the fixed capacity);
  /// in_flight is derived from the identity and `torn` latches if the
  /// residue would be negative.  Returns the row, or nullptr when the stage
  /// table is full.
  StageHealth* add_stage(std::string_view n, std::uint64_t admitted,
                         std::uint64_t completed, std::uint64_t lost,
                         std::uint64_t refused = 0) {
    if (stage_count >= kMaxStages) return nullptr;
    StageHealth& s = stages[stage_count++];
    copy_name(s.name, sizeof s.name, n);
    s.admitted = admitted;
    s.completed = completed;
    s.lost = lost;
    s.refused = refused;
    if (admitted >= completed + lost) {
      s.in_flight = admitted - completed - lost;
    } else {
      s.in_flight = 0;
      s.torn = 1;
    }
    return &s;
  }

  static void copy_name(char* dst, std::size_t cap, std::string_view src) {
    const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  }
};

static_assert(std::is_trivially_copyable_v<HealthSnapshot>,
              "HealthSnapshot must stay seqlock-transportable");

/// Seq-locked double buffer publishing HealthSnapshots from one writer (the
/// sampler) to any number of readers (scrape endpoint, steering controller,
/// tests) such that neither side ever blocks the other:
///
///   * the writer never takes a lock and never waits for readers — publish()
///     is a bounded sequence of word stores bracketed by seq counter
///     updates (odd = mid-write) on the slot readers are *not* pointed at;
///   * a reader copies the latest slot word-by-word and retries iff the
///     writer lapped it mid-copy (two publishes during one read) — with two
///     slots the retry is vanishingly rare and bounded in practice.
///
/// The payload crosses threads as atomic words, written with release stores
/// and read with acquire loads.  A reader that sees any word of a newer
/// publish therefore sees that publish's odd seq at its validating load, and
/// retries.  No fence is needed and no plain-memory race exists anywhere in
/// the protocol, so TSan checks all of it.
class HealthBoard {
 public:
  HealthBoard() = default;
  HealthBoard(const HealthBoard&) = delete;
  HealthBoard& operator=(const HealthBoard&) = delete;

  /// Publishes `s` (single writer only).
  void publish(const HealthSnapshot& s) noexcept {
    const std::uint64_t n = published_.load(std::memory_order_relaxed);
    Slot& slot = slots_[n & 1];
    // Odd seq marks the slot mid-write for any reader still pointed at it
    // from a previous lap.
    const std::uint64_t s0 = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(s0 + 1, std::memory_order_relaxed);
    std::uint64_t words[kWords];
    std::memcpy(words, &s, sizeof s);
    // Release: each word carries the odd seq above to a reader that sees it.
    for (std::size_t i = 0; i < kWords; ++i)
      slot.words[i].store(words[i], std::memory_order_release);
    slot.seq.store(s0 + 2, std::memory_order_release);
    published_.store(n + 1, std::memory_order_release);
  }

  /// Copies the latest published snapshot into `out`.  Returns false when
  /// nothing has been published yet.  Wait-free for the writer; the reader
  /// retries only if it was lapped mid-copy.
  bool read(HealthSnapshot& out) const noexcept {
    for (;;) {
      const std::uint64_t n = published_.load(std::memory_order_acquire);
      if (n == 0) return false;
      const Slot& slot = slots_[(n - 1) & 1];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;  // writer lapped onto this slot; re-resolve
      std::uint64_t words[kWords];
      for (std::size_t i = 0; i < kWords; ++i)
        words[i] = slot.words[i].load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      std::memcpy(&out, words, sizeof out);
      return true;
    }
  }

  /// Publishes completed so far (0 = nothing readable yet).
  std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(HealthSnapshot) + sizeof(std::uint64_t) - 1) /
      sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords] = {};
  };

  Slot slots_[2];
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace prism::obs::live
