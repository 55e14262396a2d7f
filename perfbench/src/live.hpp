// The live-tier workloads: a seeded trace replayed into an integrated (flat)
// or federated environment, in closed-loop saturation legs and open-loop
// fixed-rate legs.
#pragma once

#include <string>

#include "result.hpp"

namespace perfbench {

/// True for halo_causal, forward_online and federated_halo.
bool is_live_workload(const std::string& name);

/// Runs one live workload for opts.seconds and returns its metrics: the
/// end-to-end set, or with opts.trace the per-layer set.
RunResult run_live(const std::string& name, const RunOptions& opts);

}  // namespace perfbench
