// Textual configuration for the integrated environment — the rapid-
// prototyping surface of the Figure-1 workflow: "the IS is configurable, so
// different management policies can be instituted dynamically" (§3.3).  A
// config is a line-oriented `key = value` file:
//
//   # prism IS configuration
//   nodes = 8
//   processes_per_node = 2
//   lis = daemon                  # buffered | forwarding | daemon
//   flush_policy = faof           # fof | faof | threshold | adaptive
//   buffer_capacity = 256
//   flush_threshold = 0.75
//   adaptive_target_flush_ns = 5000000
//   sampling_period_ns = 2000000
//   pipe_capacity = 512
//   daemon_blocks_app = true
//   tp = pipe                     # pipe | socket | shm
//   link_capacity = 2048
//   ism_input = miso              # siso | miso
//   causal_ordering = true
//   output_capacity = 8192
//   storage_path = /tmp/run.trc
//   ism_shards = 8                # 0 = flat IS; >= 1 = two-level federation
//   shard_virtual_nodes = 64      # consistent-hash ring points per shard
//   shard_assign = hash           # hash | modulo
//   root_tp = socket              # aggregator->root transport (default: tp)
//   agg_batch_records = 256       # aggregator uplink batch size
//
// Unknown keys and malformed values are errors (with line numbers): a
// config that silently ignores typos is how an evaluation runs the wrong
// experiment.
#pragma once

#include <stdexcept>
#include <string>

#include "core/environment.hpp"

namespace prism::core {

class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::size_t line, const std::string& message)
      : std::runtime_error("config:" + std::to_string(line) + ": " + message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses a configuration text into an EnvironmentConfig (unset keys keep
/// their defaults).  Throws ConfigError on unknown keys or bad values.
EnvironmentConfig parse_environment_config(const std::string& text);

/// Serializes a configuration as parseable text (every key explicit).
std::string serialize_environment_config(const EnvironmentConfig& config);

}  // namespace prism::core
