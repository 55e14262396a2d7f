// perfbench: one seeded benchmark over PRISM's live IS and model tier.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// Prints the machine fingerprint, any failed check, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, from a separate traced run whose spans go to FILE.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "fingerprint.hpp"
#include "live.hpp"
#include "model.hpp"
#include "spans.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload halo_causal|forward_online|"
               "federated_halo|model_sweep [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return usage(argv[0]);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(opts.seconds > 0) || opts.seconds > 600)
        return usage(argv[0]);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage(argv[0]);
      opts.trace = v == "1";
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!perfbench::is_live_workload(workload) && workload != "model_sweep")
    return usage(argv[0]);

  std::printf("fingerprint: %s\n",
              perfbench::machine_fingerprint_json().c_str());
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);
  try {
    auto res = workload == "model_sweep"
                   ? perfbench::run_model_sweep(opts)
                   : perfbench::run_live(workload, opts);
    res.finish(opts.trace);
    for (const auto& f : res.failures)
      std::printf("CHECK FAILED: %s\n", f.c_str());
    for (const auto& m : res.metrics)
      std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    if (!spans_path.empty() && opts.trace &&
        !perfbench::spans::write_chrome_trace(spans_path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    std::printf("%s\n", res.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
