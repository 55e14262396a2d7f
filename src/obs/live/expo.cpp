#include "obs/live/expo.hpp"

#include <charconv>
#include <cstdio>

namespace prism::obs::live {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);  // shortest round-trip form
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void help_type(std::string& out, const std::string& family,
               std::string_view help, std::string_view type) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

void stage_row(std::string& out, const char* stage, const char* state,
               std::uint64_t v) {
  out += "prism_pipeline_records{stage=\"";
  out += escape_label_value(stage);
  out += "\",state=\"";
  out += state;
  out += "\"} ";
  out += std::to_string(v);
  out += '\n';
}

void degradation_row(std::string& out, const char* kind, std::uint64_t v) {
  out += "prism_degradation{kind=\"";
  out += kind;
  out += "\"} ";
  out += std::to_string(v);
  out += '\n';
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_exposition(const MetricsSnapshot& snap,
                                  const HealthSnapshot* health,
                                  std::uint64_t now_ns) {
  std::string out;
  out.reserve(4096);

  // Registry counters: family <prefix><name>_total, TYPE counter.  The
  // snapshot arrives name-sorted, so families render in a stable order.
  for (const auto& c : snap.counters) {
    const std::string family = "prism_" + prometheus_name(c.name) + "_total";
    help_type(out, family, "registry counter " + c.name, "counter");
    out += family;
    out += ' ';
    out += std::to_string(c.value);
    out += '\n';
  }

  for (const auto& g : snap.gauges) {
    const std::string family = "prism_" + prometheus_name(g.name);
    help_type(out, family, "registry gauge " + g.name, "gauge");
    out += family;
    out += ' ';
    out += std::to_string(g.value);
    out += '\n';
  }

  // Histograms: cumulative buckets (our registry stores per-bucket counts),
  // the mandatory +Inf row, then _sum and _count.
  for (const auto& h : snap.histograms) {
    const std::string family = "prism_" + prometheus_name(h.name);
    help_type(out, family, "registry histogram " + h.name, "histogram");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size() && i < h.buckets.size(); ++i) {
      cum += h.buckets[i];
      out += family;
      out += "_bucket{le=\"";
      append_double(out, h.bounds[i]);
      out += "\"} ";
      out += std::to_string(cum);
      out += '\n';
    }
    if (h.buckets.size() > h.bounds.size()) cum += h.buckets.back();
    out += family;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(cum);
    out += '\n';
    out += family;
    out += "_sum ";
    append_double(out, h.sum);
    out += '\n';
    out += family;
    out += "_count ";
    out += std::to_string(h.count);
    out += '\n';
  }

  if (health != nullptr) {
    const HealthSnapshot& hs = *health;

    help_type(out, "prism_pipeline_records",
              "pipeline conservation ledger per stage", "gauge");
    for (std::uint32_t i = 0;
         i < hs.stage_count && i < HealthSnapshot::kMaxStages; ++i) {
      const StageHealth& s = hs.stages[i];
      stage_row(out, s.name, "admitted", s.admitted);
      stage_row(out, s.name, "completed", s.completed);
      stage_row(out, s.name, "lost", s.lost);
      stage_row(out, s.name, "in_flight", s.in_flight);
      stage_row(out, s.name, "refused", s.refused);
    }

    help_type(out, "prism_pipeline_conserved",
              "1 when admitted == completed + lost + in_flight", "gauge");
    for (std::uint32_t i = 0;
         i < hs.stage_count && i < HealthSnapshot::kMaxStages; ++i) {
      const StageHealth& s = hs.stages[i];
      out += "prism_pipeline_conserved{stage=\"";
      out += escape_label_value(s.name);
      out += "\"} ";
      out += s.conserved() ? '1' : '0';
      out += '\n';
    }

    help_type(out, "prism_degradation",
              "degradation ledger (DegradationReport mirror)", "gauge");
    degradation_row(out, "lises_dead", hs.lises_dead);
    degradation_row(out, "tools_failed", hs.tools_failed);
    degradation_row(out, "records_lost_send", hs.records_lost_send);
    degradation_row(out, "records_lost_dead", hs.records_lost_dead);
    degradation_row(out, "records_lost_wire", hs.records_lost_wire);
    degradation_row(out, "control_dropped", hs.control_dropped);
    degradation_row(out, "holdback_expired", hs.holdback_expired);
    degradation_row(out, "shards_dead", hs.shards_dead);
    degradation_row(out, "records_lost_uplink", hs.records_lost_uplink);
    degradation_row(out, "records_lost_agg", hs.records_lost_agg);

    help_type(out, "prism_degraded", "1 when any degradation field is nonzero",
              "gauge");
    out += "prism_degraded ";
    out += hs.degraded ? '1' : '0';
    out += '\n';

    help_type(out, "prism_alloc_bytes_total",
              "bytes allocated (prof interposition)", "counter");
    out += "prism_alloc_bytes_total ";
    out += std::to_string(hs.alloc_bytes);
    out += '\n';
    help_type(out, "prism_alloc_count_total",
              "allocations (prof interposition)", "counter");
    out += "prism_alloc_count_total ";
    out += std::to_string(hs.alloc_count);
    out += '\n';

    help_type(out, "prism_flight_events_total",
              "flight-recorder events recorded", "counter");
    out += "prism_flight_events_total ";
    out += std::to_string(hs.flight_events);
    out += '\n';

    help_type(out, "prism_health_sample_seq",
              "sample number of this snapshot", "counter");
    out += "prism_health_sample_seq ";
    out += std::to_string(hs.seq);
    out += '\n';

    help_type(out, "prism_health_sample_age_ns",
              "steady-clock age of this snapshot", "gauge");
    out += "prism_health_sample_age_ns ";
    out += std::to_string(now_ns > hs.t_wall_ns ? now_ns - hs.t_wall_ns : 0);
    out += '\n';
  }

  return out;
}

std::string health_json(const HealthSnapshot& hs) {
  std::string out;
  out.reserve(2048);
  out += "{\"version\":";
  out += std::to_string(hs.version);
  out += ",\"seq\":";
  out += std::to_string(hs.seq);
  out += ",\"t_wall_ns\":";
  out += std::to_string(hs.t_wall_ns);
  out += ",\"degraded\":";
  out += hs.degraded ? "true" : "false";
  out += ",\"degradation\":{\"lises_dead\":";
  out += std::to_string(hs.lises_dead);
  out += ",\"tools_failed\":";
  out += std::to_string(hs.tools_failed);
  out += ",\"records_lost_send\":";
  out += std::to_string(hs.records_lost_send);
  out += ",\"records_lost_dead\":";
  out += std::to_string(hs.records_lost_dead);
  out += ",\"records_lost_wire\":";
  out += std::to_string(hs.records_lost_wire);
  out += ",\"control_dropped\":";
  out += std::to_string(hs.control_dropped);
  out += ",\"holdback_expired\":";
  out += std::to_string(hs.holdback_expired);
  out += ",\"shards_dead\":";
  out += std::to_string(hs.shards_dead);
  out += ",\"records_lost_uplink\":";
  out += std::to_string(hs.records_lost_uplink);
  out += ",\"records_lost_agg\":";
  out += std::to_string(hs.records_lost_agg);
  out += "},\"alloc\":{\"count\":";
  out += std::to_string(hs.alloc_count);
  out += ",\"bytes\":";
  out += std::to_string(hs.alloc_bytes);
  out += ",\"frees\":";
  out += std::to_string(hs.free_count);
  out += "},\"flight_events\":";
  out += std::to_string(hs.flight_events);
  out += ",\"stages\":[";
  for (std::uint32_t i = 0; i < hs.stage_count && i < HealthSnapshot::kMaxStages;
       ++i) {
    const StageHealth& s = hs.stages[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"admitted\":";
    out += std::to_string(s.admitted);
    out += ",\"completed\":";
    out += std::to_string(s.completed);
    out += ",\"lost\":";
    out += std::to_string(s.lost);
    out += ",\"in_flight\":";
    out += std::to_string(s.in_flight);
    out += ",\"refused\":";
    out += std::to_string(s.refused);
    out += ",\"conserved\":";
    out += s.conserved() ? "true" : "false";
    out += '}';
  }
  out += "],\"counters\":[";
  for (std::uint32_t i = 0;
       i < hs.counter_count && i < HealthSnapshot::kMaxCounters; ++i) {
    const CounterHealth& c = hs.counters[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_json_string(out, c.name);
    out += ",\"value\":";
    out += std::to_string(c.value);
    out += ",\"delta\":";
    out += std::to_string(c.delta);
    out += '}';
  }
  out += "],\"counters_truncated\":";
  out += std::to_string(hs.counters_truncated);
  out += '}';
  return out;
}

}  // namespace prism::obs::live
