// Real, thread-based instrumented workloads for the live IS.
//
// Where apps.hpp drives the *simulated* multicomputer, these run actual
// std::thread "nodes" exchanging messages over in-process channels, with
// instrumentation events recorded through an IntegratedEnvironment's LISes
// — flat or federated (federation.shards >= 1; a FederatedEnvironment
// converts too), since the workloads only touch the per-node LISes.  They
// exist so the live LIS/ISM/TP stack is exercised end-to-end by the test
// suite, the examples, and the live-vs-model validation bench.
#pragma once

#include <cstdint>

#include "core/environment.hpp"

namespace prism::workload {

struct ThreadAppReport {
  std::uint64_t messages = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t wall_ns = 0;
  double checksum = 0;  ///< defeats dead-code elimination of the kernels
};

/// Spins the CPU for roughly `iters` dependent multiply-adds; returns a
/// value that must be consumed.
double burn_cpu(std::uint64_t iters);

/// Token ring over `env.config().nodes` threads, `rounds` circulations,
/// `work_iters` of compute per hop.  Each hop records kSend/kRecv events
/// (plus a kUserEvent per round) into the owning node's LIS.
ThreadAppReport run_ring_threads(core::IntegratedEnvironment& env,
                                 unsigned rounds, std::uint64_t work_iters);

/// Fork-join compute phases: every thread runs `phases` phases of
/// `work_iters` work bracketed by kBlockBegin/kBlockEnd, with a barrier
/// (kBarrier event) between phases.
ThreadAppReport run_phases_threads(core::IntegratedEnvironment& env,
                                   unsigned phases, std::uint64_t work_iters);

/// Sampling workload for daemon LISes: every thread emits kSample metric
/// records (tag = metric id) at the given approximate rate for `duration_ms`.
ThreadAppReport run_sampling_threads(core::IntegratedEnvironment& env,
                                     unsigned metric_count,
                                     double samples_per_sec_per_thread,
                                     unsigned duration_ms);

}  // namespace prism::workload
