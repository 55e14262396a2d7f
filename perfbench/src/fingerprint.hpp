// The machine a result was measured on.  Results compare only between runs
// with the same fingerprint.
#pragma once

#include <string>

namespace perfbench {

/// One-line JSON object: cpu_model, nproc, kernel, compiler, build_type,
/// prism_obs.
std::string machine_fingerprint_json();

}  // namespace perfbench
