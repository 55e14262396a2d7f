// Local-buffer flush policies (§3.1).
//
// "We have identified two management policies for the PICL IS: Flush One
// buffer when it Fills (FOF) and Flush All the buffers when One Fills
// (FAOF)."  A policy is a small strategy object that BufferedLis consults
// once per buffer, never per record: before a buffer starts to fill (at
// construction and after each flush) the LIS asks trigger() for the
// occupancy at which it flushes, and record() compares its claimed slot
// against that number (DESIGN.md §18).  `global()` distinguishes FAOF-style gang flushes (which
// require coordination across all LISes) from local decisions.
//
// ThresholdFlush and AdaptiveThresholdFlush extend the paper's static
// policies: the adaptive one tracks the observed arrival rate and flushes
// early enough to bound the expected flush frequency — the "adaptive
// management policy" direction the paper prescribes for next-generation ISs
// (§5).  The LIS feeds it through observe_batch(), once per shipped batch,
// from the records' own timestamps.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>

#include "trace/record.hpp"

namespace prism::core {

class FlushPolicy {
 public:
  virtual ~FlushPolicy() = default;
  /// Occupancy at which a buffer of `capacity` records flushes: the record
  /// that brings the buffer to this many records triggers the flush.  Asked
  /// once per buffer, before it starts to fill.  A value above `capacity`
  /// never fires: the buffer fills and further records are dropped.
  virtual std::size_t trigger(std::size_t capacity) const = 0;
  /// Fed once per shipped buffer with its records in arrival order, before
  /// the next trigger() call.  Static policies ignore it.
  virtual void observe_batch(std::span<const trace::EventRecord>) {}
  /// True when a triggered flush must gang-flush every LIS (FAOF).
  virtual bool global() const { return false; }
  virtual std::string_view name() const = 0;
};

/// Smallest occupancy >= `records`, clamped to [1, capacity]: the trigger
/// of a policy that flushes once the buffer holds `records`.
inline std::size_t occupancy_at_least(double records, std::size_t capacity) {
  if (!(records < static_cast<double>(capacity))) return capacity;
  const auto n = static_cast<std::size_t>(std::ceil(records));
  return n < 1 ? 1 : n;
}

/// FOF: flush this buffer when it fills.
class FlushOnFill final : public FlushPolicy {
 public:
  std::size_t trigger(std::size_t capacity) const override { return capacity; }
  std::string_view name() const override { return "FOF"; }
};

/// FAOF: when one buffer fills, flush all buffers.
class FlushAllOnFill final : public FlushPolicy {
 public:
  std::size_t trigger(std::size_t capacity) const override { return capacity; }
  bool global() const override { return true; }
  std::string_view name() const override { return "FAOF"; }
};

/// Flush when occupancy reaches `fraction` of capacity (0 < fraction <= 1).
/// Flushing before completely full keeps the hot path from ever dropping.
class ThresholdFlush final : public FlushPolicy {
 public:
  explicit ThresholdFlush(double fraction) : fraction_(fraction) {
    if (!(fraction > 0 && fraction <= 1))
      throw std::invalid_argument("ThresholdFlush: fraction out of (0,1]");
  }
  std::size_t trigger(std::size_t capacity) const override {
    return occupancy_at_least(fraction_ * static_cast<double>(capacity),
                              capacity);
  }
  std::string_view name() const override { return "threshold"; }

 private:
  double fraction_;
};

/// Adaptive policy: estimates the event arrival rate with an exponentially
/// weighted mean of inter-arrival gaps and flushes when the buffer holds
/// `target_flush_interval` worth of expected arrivals, clamped to the
/// capacity.  Bounds both flush frequency and buffer residency latency.
/// Until it has seen a gap it flushes only when full, like FOF.
class AdaptiveThresholdFlush final : public FlushPolicy {
 public:
  /// `target_flush_interval_ns`: desired time between flushes.
  /// `smoothing` in (0,1]: EWMA weight of the newest gap.
  AdaptiveThresholdFlush(std::uint64_t target_flush_interval_ns,
                         double smoothing = 0.1)
      : target_ns_(target_flush_interval_ns), alpha_(smoothing) {
    if (target_flush_interval_ns == 0)
      throw std::invalid_argument("AdaptiveThresholdFlush: zero target");
    if (!(smoothing > 0 && smoothing <= 1))
      throw std::invalid_argument("AdaptiveThresholdFlush: bad smoothing");
  }

  /// Feeds one arrival timestamp (ns).  A timestamp older than the last one
  /// seen (another process's clock, interleaved) carries no gap and is
  /// skipped.
  void observe_arrival(std::uint64_t t_ns) {
    if (have_last_) {
      if (t_ns < last_ns_) return;
      const auto gap = static_cast<double>(t_ns - last_ns_);
      mean_gap_ns_ =
          mean_gap_ns_ == 0 ? gap : alpha_ * gap + (1 - alpha_) * mean_gap_ns_;
    }
    last_ns_ = t_ns;
    have_last_ = true;
  }

  void observe_batch(std::span<const trace::EventRecord> batch) override {
    for (const auto& r : batch) observe_arrival(r.timestamp);
  }

  std::size_t trigger(std::size_t capacity) const override {
    if (mean_gap_ns_ <= 0) return capacity;
    return occupancy_at_least(static_cast<double>(target_ns_) / mean_gap_ns_,
                              capacity);
  }

  double estimated_rate_per_sec() const {
    return mean_gap_ns_ > 0 ? 1e9 / mean_gap_ns_ : 0.0;
  }

  std::string_view name() const override { return "adaptive"; }

 private:
  std::uint64_t target_ns_;
  double alpha_;
  double mean_gap_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  bool have_last_ = false;
};

}  // namespace prism::core
