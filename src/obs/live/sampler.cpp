#include "obs/live/sampler.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/live/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/alloc.hpp"

namespace prism::obs::live {

namespace {

std::uint64_t sampler_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TelemetrySampler::TelemetrySampler(SamplerOptions options, Collector collector)
    : options_(options), collector_(std::move(collector)) {
  if (options_.period_ms == 0)
    throw std::invalid_argument("TelemetrySampler: period 0");
  thread_ = std::thread([this] { loop(); });
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetrySampler::sample_now() {
  std::lock_guard lk(mu_);
  take_sample();
}

void TelemetrySampler::loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    const bool stopping =
        cv_.wait_for(lk, std::chrono::milliseconds(options_.period_ms),
                     [this] { return stopping_; });
    take_sample();  // under mu_; the final sample below covers stop()
    if (stopping) return;
  }
}

// Called with mu_ held.  Assembly order matters only inside the collector
// (completed → lost → admitted, see StageHealth); everything here is either
// sampler-local or monotone.
void TelemetrySampler::take_sample() {
  HealthSnapshot snap;
  snap.seq = next_seq_++;
  snap.t_wall_ns = sampler_now_ns();

  if (collector_) collector_(snap);
  snap.degraded = (snap.lises_dead || snap.tools_failed ||
                   snap.records_lost_send || snap.records_lost_dead ||
                   snap.records_lost_wire || snap.control_dropped ||
                   snap.holdback_expired || snap.shards_dead ||
                   snap.records_lost_uplink || snap.records_lost_agg)
                      ? 1
                      : 0;

  const auto alloc = prof::process_alloc_stats();
  snap.alloc_count = alloc.allocs;
  snap.alloc_bytes = alloc.bytes;
  snap.free_count = alloc.frees;
#if PRISM_OBS_ENABLED
  snap.flight_events = FlightRecorder::instance().recorded();
#endif

  if (options_.include_registry) {
    const MetricsSnapshot ms = Registry::instance().snapshot();
    for (const auto& c : ms.counters) {
      if (snap.counter_count >= HealthSnapshot::kMaxCounters) {
        ++snap.counters_truncated;
        continue;
      }
      CounterHealth& row = snap.counters[snap.counter_count++];
      HealthSnapshot::copy_name(row.name, sizeof row.name, c.name);
      row.value = c.value;
      const auto it = prev_counters_.find(c.name);
      row.delta = it == prev_counters_.end() ? c.value : c.value - it->second;
      prev_counters_[c.name] = c.value;
    }
  }

  board_.publish(snap);
}

}  // namespace prism::obs::live
