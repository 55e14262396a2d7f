#include "core/config_io.hpp"

#include <cctype>
#include <charconv>
#include <sstream>

#include "core/shm_ring.hpp"

namespace prism::core {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::uint64_t parse_u64(std::size_t line, const std::string& v) {
  std::uint64_t out = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || p != v.data() + v.size())
    throw ConfigError(line, "expected an unsigned integer, got '" + v + "'");
  return out;
}

double parse_double(std::size_t line, const std::string& v) {
  // from_chars, not stod: stod honors the global C locale (a config written
  // with '.' fails to parse under a ',' decimal locale) and throws an
  // unrelated out_of_range on overflow ("1e999") instead of a ConfigError.
  double out = 0.0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::result_out_of_range)
    throw ConfigError(line, "number out of range: '" + v + "'");
  if (ec != std::errc{} || p != v.data() + v.size())
    throw ConfigError(line, "expected a number, got '" + v + "'");
  return out;
}

bool parse_bool(std::size_t line, const std::string& v) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw ConfigError(line, "expected a boolean, got '" + v + "'");
}

}  // namespace

EnvironmentConfig parse_environment_config(const std::string& text) {
  EnvironmentConfig cfg;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments.
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw ConfigError(lineno, "expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) throw ConfigError(lineno, "empty key");
    if (value.empty()) throw ConfigError(lineno, "empty value for '" + key + "'");

    if (key == "nodes") {
      cfg.nodes = static_cast<std::uint32_t>(parse_u64(lineno, value));
    } else if (key == "processes_per_node") {
      cfg.processes_per_node =
          static_cast<std::uint32_t>(parse_u64(lineno, value));
    } else if (key == "lis") {
      if (value == "buffered") cfg.lis_style = LisStyle::kBuffered;
      else if (value == "forwarding") cfg.lis_style = LisStyle::kForwarding;
      else if (value == "daemon") cfg.lis_style = LisStyle::kDaemon;
      else throw ConfigError(lineno, "unknown lis style '" + value + "'");
    } else if (key == "flush_policy") {
      if (value == "fof") cfg.flush_policy = FlushPolicyKind::kFof;
      else if (value == "faof") cfg.flush_policy = FlushPolicyKind::kFaof;
      else if (value == "threshold")
        cfg.flush_policy = FlushPolicyKind::kThreshold;
      else if (value == "adaptive")
        cfg.flush_policy = FlushPolicyKind::kAdaptive;
      else throw ConfigError(lineno, "unknown flush policy '" + value + "'");
    } else if (key == "buffer_capacity") {
      cfg.local_buffer_capacity = parse_u64(lineno, value);
    } else if (key == "flush_threshold") {
      cfg.flush_threshold_fraction = parse_double(lineno, value);
    } else if (key == "adaptive_target_flush_ns") {
      cfg.adaptive_target_flush_ns = parse_u64(lineno, value);
    } else if (key == "sampling_period_ns") {
      cfg.sampling_period_ns = parse_u64(lineno, value);
    } else if (key == "pipe_capacity") {
      cfg.pipe_capacity = parse_u64(lineno, value);
    } else if (key == "daemon_blocks_app") {
      cfg.daemon_blocks_app_on_full_pipe = parse_bool(lineno, value);
    } else if (key == "tp") {
      if (value == "pipe") cfg.tp_flavor = TpFlavor::kPipe;
      else if (value == "socket") cfg.tp_flavor = TpFlavor::kSocket;
      else if (value == "shm") cfg.tp_flavor = TpFlavor::kShm;
      else throw ConfigError(lineno, "unknown tp flavor '" + value + "'");
    } else if (key == "link_capacity") {
      cfg.link_capacity = parse_u64(lineno, value);
    } else if (key == "socket_domain") {
      if (value == "unix") cfg.socket.domain = SocketDomain::kUnix;
      else if (value == "tcp") cfg.socket.domain = SocketDomain::kTcpLoopback;
      else throw ConfigError(lineno, "unknown socket domain '" + value + "'");
    } else if (key == "socket_coalesce_bytes") {
      cfg.socket.coalesce_byte_budget = parse_u64(lineno, value);
      if (cfg.socket.coalesce_byte_budget == 0)
        throw ConfigError(lineno, "socket_coalesce_bytes must be positive");
    } else if (key == "socket_max_frame_records") {
      cfg.socket.max_frame_records = parse_u64(lineno, value);
      if (cfg.socket.max_frame_records == 0)
        throw ConfigError(lineno, "socket_max_frame_records must be positive");
    } else if (key == "shm_ring_capacity") {
      cfg.shm.ring_capacity = parse_u64(lineno, value);
      // Validated at parse time, not link setup: a zero or non-power-of-two
      // capacity would otherwise surface as a throw deep inside environment
      // construction, far from the config line that caused it.
      if (!is_power_of_two(cfg.shm.ring_capacity))
        throw ConfigError(
            lineno, "shm_ring_capacity must be a nonzero power of two, got '" +
                        value + "'");
    } else if (key == "shm_max_frame_records") {
      cfg.shm.max_frame_records = parse_u64(lineno, value);
      if (cfg.shm.max_frame_records == 0)
        throw ConfigError(lineno, "shm_max_frame_records must be positive");
    } else if (key == "ism_input") {
      if (value == "siso") cfg.ism.input = InputConfig::kSiso;
      else if (value == "miso") cfg.ism.input = InputConfig::kMiso;
      else throw ConfigError(lineno, "unknown ism input '" + value + "'");
    } else if (key == "causal_ordering") {
      cfg.ism.causal_ordering = parse_bool(lineno, value);
    } else if (key == "output_capacity") {
      cfg.ism.output_capacity = parse_u64(lineno, value);
    } else if (key == "storage_path") {
      cfg.ism.storage_path = value;
    } else if (key == "telemetry") {
      if (value == "off") cfg.telemetry.mode = TelemetryMode::kOff;
      else if (value == "unix") cfg.telemetry.mode = TelemetryMode::kUnix;
      else if (value == "tcp") cfg.telemetry.mode = TelemetryMode::kTcp;
      else throw ConfigError(lineno, "unknown telemetry mode '" + value + "'");
    } else if (key == "telemetry_period_ms") {
      cfg.telemetry.period_ms = parse_u64(lineno, value);
      // Caught here rather than at start(), next to the offending line.
      if (cfg.telemetry.period_ms == 0)
        throw ConfigError(lineno, "telemetry_period_ms must be positive");
    } else if (key == "telemetry_endpoint") {
      cfg.telemetry.endpoint = value;
    } else if (key == "ism_shards") {
      cfg.federation.shards = static_cast<std::uint32_t>(parse_u64(lineno, value));
    } else if (key == "shard_virtual_nodes") {
      cfg.federation.virtual_nodes =
          static_cast<std::uint32_t>(parse_u64(lineno, value));
      if (cfg.federation.virtual_nodes == 0)
        throw ConfigError(lineno, "shard_virtual_nodes must be positive");
    } else if (key == "shard_assign") {
      if (value == "hash") cfg.federation.assign = ShardAssign::kHash;
      else if (value == "modulo") cfg.federation.assign = ShardAssign::kModulo;
      else throw ConfigError(lineno, "unknown shard_assign '" + value + "'");
    } else if (key == "root_tp") {
      if (value == "pipe") cfg.federation.root_tp = TpFlavor::kPipe;
      else if (value == "socket") cfg.federation.root_tp = TpFlavor::kSocket;
      else if (value == "shm") cfg.federation.root_tp = TpFlavor::kShm;
      else throw ConfigError(lineno, "unknown root_tp flavor '" + value + "'");
    } else if (key == "agg_batch_records") {
      cfg.federation.agg_batch_records = parse_u64(lineno, value);
      if (cfg.federation.agg_batch_records == 0)
        throw ConfigError(lineno, "agg_batch_records must be positive");
    } else {
      throw ConfigError(lineno, "unknown key '" + key + "'");
    }
  }
  return cfg;
}

std::string serialize_environment_config(const EnvironmentConfig& cfg) {
  std::ostringstream os;
  os << "nodes = " << cfg.nodes << "\n";
  os << "processes_per_node = " << cfg.processes_per_node << "\n";
  os << "lis = " << to_string(cfg.lis_style) << "\n";
  os << "flush_policy = ";
  switch (cfg.flush_policy) {
    case FlushPolicyKind::kFof: os << "fof"; break;
    case FlushPolicyKind::kFaof: os << "faof"; break;
    case FlushPolicyKind::kThreshold: os << "threshold"; break;
    case FlushPolicyKind::kAdaptive: os << "adaptive"; break;
  }
  os << "\n";
  os << "buffer_capacity = " << cfg.local_buffer_capacity << "\n";
  os << "flush_threshold = " << cfg.flush_threshold_fraction << "\n";
  os << "adaptive_target_flush_ns = " << cfg.adaptive_target_flush_ns << "\n";
  os << "sampling_period_ns = " << cfg.sampling_period_ns << "\n";
  os << "pipe_capacity = " << cfg.pipe_capacity << "\n";
  os << "daemon_blocks_app = "
     << (cfg.daemon_blocks_app_on_full_pipe ? "true" : "false") << "\n";
  os << "tp = " << to_string(cfg.tp_flavor) << "\n";
  os << "link_capacity = " << cfg.link_capacity << "\n";
  os << "socket_domain = " << to_string(cfg.socket.domain) << "\n";
  os << "socket_coalesce_bytes = " << cfg.socket.coalesce_byte_budget << "\n";
  os << "socket_max_frame_records = " << cfg.socket.max_frame_records << "\n";
  os << "shm_ring_capacity = " << cfg.shm.ring_capacity << "\n";
  os << "shm_max_frame_records = " << cfg.shm.max_frame_records << "\n";
  os << "ism_input = "
     << (cfg.ism.input == InputConfig::kSiso ? "siso" : "miso") << "\n";
  os << "causal_ordering = " << (cfg.ism.causal_ordering ? "true" : "false")
     << "\n";
  os << "output_capacity = " << cfg.ism.output_capacity << "\n";
  if (cfg.ism.storage_path)
    os << "storage_path = " << cfg.ism.storage_path->string() << "\n";
  os << "telemetry = " << to_string(cfg.telemetry.mode) << "\n";
  os << "telemetry_period_ms = " << cfg.telemetry.period_ms << "\n";
  if (!cfg.telemetry.endpoint.empty())
    os << "telemetry_endpoint = " << cfg.telemetry.endpoint << "\n";
  os << "ism_shards = " << cfg.federation.shards << "\n";
  os << "shard_virtual_nodes = " << cfg.federation.virtual_nodes << "\n";
  os << "shard_assign = " << to_string(cfg.federation.assign) << "\n";
  if (cfg.federation.root_tp)
    os << "root_tp = " << to_string(*cfg.federation.root_tp) << "\n";
  os << "agg_batch_records = " << cfg.federation.agg_batch_records << "\n";
  return os.str();
}

}  // namespace prism::core
