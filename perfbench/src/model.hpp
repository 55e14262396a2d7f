// The model-tier workload: the fig05 PICL, fig09 ROCC and fig11 Vista
// replicated sweeps at nproc workers.
#pragma once

#include "result.hpp"

namespace perfbench {

/// Runs the sweeps for opts.seconds.  In this workload a "record" is a
/// simulated event and a "delivery" is one replication's result.
RunResult run_model_sweep(const RunOptions& opts);

}  // namespace perfbench
