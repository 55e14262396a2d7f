#include "result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The catalogue: every metric the benchmark reports, in print order.
// BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"delivered_rps", "rec/s"},   {"deliver_p50_us", "us"},
      {"deliver_p90_us", "us"},     {"record_p50_ns", "ns"},
      {"delivered_ratio", "ratio"}, {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},             {"model_reps_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"trace.overhead_ratio", "ratio"},
      {"lost_ratio", "ratio"},
      {"gen.lateness_p50_us", "us"},
      {"lis.record_p99_ns", "ns"},
      {"lis.records_per_flush", "rec"},
      {"lis.flush_ns_per_record", "ns"},
      {"lis.dropped", "count"},
      {"tp.frames_sent", "count"},
      {"tp.frames_delivered", "count"},
      {"tp.bytes_per_record", "B"},
      {"tp.coalesce_factor", "frames/write"},
      {"tp.shm_frame_ns", "ns"},
      {"tp.socket_frame_ns", "ns"},
      {"tp.socket_link_frame_ns", "ns"},
      {"tp.channel_frame_ns", "ns"},
      {"ism.drain_s", "s"},
      {"ism.records_per_batch", "rec"},
      {"ism.hold_back_ratio", "ratio"},
      {"ism.proc_latency_p95_us", "us"},
      {"ism.dispatch_latency_mean_us", "us"},
      {"causal.offer_ns", "ns"},
      {"causal.peak_held", "rec"},
      {"tool.consume_ns", "ns"},
      {"tool.deliver_p99_us", "us"},
      {"tool.deliver_p50_median_us", "us"},
      {"agg.records_per_uplink_batch", "rec"},
      {"agg.hold_back_ratio", "ratio"},
      {"agg.shard_skew", "ratio"},
      {"obs.lineage_cost_ratio", "ratio"},
      {"obs.lineage_in_flight", "rec"},
      {"sim.events_per_s", "1/s"},
      {"sim.pool_busy_share", "ratio"},
      {"sim.queue_wait_ms_mean", "ms"},
      {"sim.fig05_s", "s"},
      {"sim.fig09_s", "s"},
      {"sim.fig11_s", "s"},
      {"proc.rss_retained_mb", "MiB"},
      {"proc.cpu_ns_per_record", "ns"},
      {"proc.ctx_switches_per_krec", "count"},
  };
  return defs;
}

const MetricDef* find_def(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const auto& d : *defs)
      if (name == d.name) return &d;
  return nullptr;
}

}  // namespace

void RunResult::add(const std::string& name, double value) {
  const MetricDef* d = find_def(name);
  if (!d) throw std::logic_error("perfbench: unknown metric " + name);
  metrics.push_back({name, value, d->unit});
}

void RunResult::finish(bool trace) {
  std::vector<Metric> ordered;
  for (const auto& d : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&d](const Metric& m) { return m.name == d.name; });
    if (it != metrics.end()) {
      ordered.push_back(*it);
    } else if (trace) {
      ordered.push_back({d.name, 0.0, d.unit});
    } else {
      throw std::logic_error(std::string("perfbench: no value for ") + d.name);
    }
  }
  metrics = std::move(ordered);
}

std::string RunResult::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    // Full precision: the value as measured, never rounded for display.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
