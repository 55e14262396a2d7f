// TelemetrySampler (DESIGN.md §14): a background thread that assembles one
// HealthSnapshot per period and publishes it through a HealthBoard seqlock.
//
// The sampler owns everything generic — sample numbering, timestamps,
// metrics-registry counters with deltas against the previous sample, alloc
// tallies, the flight-recorder ticker.  Pipeline-specific state (stage
// conservation rows, degradation mirror) comes from an injected Collector
// callback, which is how the obs module stays free of core types: core's
// IntegratedEnvironment — flat or federated — supplies a collector that
// reads the root ISM, aggregator, TP and LIS stats level by level from the
// root down, in the completed → lost → admitted order StageHealth requires,
// and obs never links against it.
//
// Lifecycle: construction starts the thread; stop() (idempotent, run by the
// destructor) takes one final sample so short runs — shorter than a period —
// still publish a terminal snapshot.  Readers call read() at any time from
// any thread; sample_now() forces an immediate out-of-band sample (scrape
// endpoints use it when freshness matters more than cadence).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/live/health.hpp"

namespace prism::obs::live {

/// Fills the pipeline-specific parts of a snapshot (stage rows via
/// add_stage(), degradation mirror fields).  Called on the sampler thread
/// with a zeroed-then-header-filled snapshot; must be safe to call
/// concurrently with the pipeline running.
using Collector = std::function<void(HealthSnapshot&)>;

struct SamplerOptions {
  std::uint64_t period_ms = 100;
  /// When true (default) each sample scrapes the metrics registry into the
  /// snapshot's counter table (values + deltas).  Off for tests that want
  /// deterministic counter tables.
  bool include_registry = true;
};

class TelemetrySampler {
 public:
  /// Starts the sampling thread.  `collector` may be null (generic-only
  /// snapshots).  Throws std::invalid_argument if period_ms is 0.
  TelemetrySampler(SamplerOptions options, Collector collector);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Joins the thread after one final sample.  Idempotent.
  void stop();

  /// Copies the latest published snapshot; false if none published yet.
  bool read(HealthSnapshot& out) const { return board_.read(out); }

  /// Takes a sample on the calling thread, right now, and publishes it.
  /// Serialized against the periodic thread by the sampler mutex.
  void sample_now();

  /// Samples published so far.
  std::uint64_t samples() const noexcept { return board_.published(); }

  const HealthBoard& board() const noexcept { return board_; }

 private:
  void loop();
  void take_sample();

  SamplerOptions options_;
  Collector collector_;
  HealthBoard board_;

  std::mutex mu_;  // serializes take_sample(); guards stop flag + prev map
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, std::uint64_t, std::less<>> prev_counters_;
  std::thread thread_;
};

}  // namespace prism::obs::live
