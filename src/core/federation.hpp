// Sharded, hierarchical ISM federation (DESIGN.md §16).
//
// The paper's own evaluation flags the logically centralized ISM as the
// scaling bottleneck of the instrumentation system (§3.2.2: "the ISM is
// another server that accepts the instrumentation data from all the
// distributed LISs"), and the large-distributed-systems tool literature
// resolves it the same way every time: pre-reduce per cluster, merge
// causally at a root.  This module builds that two-level topology out of
// the live tier's existing parts:
//
//   LIS x N  --cluster TP-->  AggregatorIsm x S  --root TP-->  root Ism
//
//   * ShardRouter assigns every LIS node to one aggregator shard with
//     consistent hashing (virtual-node ring), so a record lineage — the
//     (node, process) stream — lands wholly on one aggregator and program
//     order can be enforced there.
//   * AggregatorIsm consumes its cluster's LIS streams, causally
//     pre-reduces them (program order + intra-shard message order; a recv
//     from another shard is waived locally and ordered at the root), and
//     forwards the ordered stream root-ward re-batched into fixed-size
//     uplink batches over a real transport (pipe / socket / shm).
//   * The root Ism (the existing class, MISO across shards) performs the
//     global gap-tolerant merge; a dead aggregator expires as a whole
//     shard (CausalReorderer::expire_nodes).
//
// IntegratedEnvironment wires this tree whenever federation.shards >= 1;
// the flat IS is the same tree with zero aggregator levels.
//
// Conservation is exact at every level and attributed exactly once:
//   LIS:        recorded == forwarded + dropped + buffered + lost_send
//               + lost_dead
//   aggregator: received == forwarded + lost_uplink + lost_dead
//               + still_held + staged
//   root ISM:   received == dispatched + still_held + in_output
// and the federation-boundary loss site (forwarded by a shard, destroyed
// on the root-bound uplink) is charged to the shard's ledger only — the
// root never saw those records.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/environment.hpp"
#include "core/ism.hpp"
#include "core/lis.hpp"
#include "core/transfer_protocol.hpp"
#include "trace/causal.hpp"

namespace prism::core {

/// Assigns LIS nodes to aggregator shards.  ShardAssign::kHash uses a
/// consistent-hash ring with `virtual_nodes` points per shard: the ring for
/// S shards is exactly the ring for S+1 shards minus shard S's points, so
/// growing or shrinking the shard count only remaps the keys of the shards
/// that appeared or vanished.  ShardAssign::kModulo is the plain
/// node-mod-shards baseline.
class ShardRouter {
 public:
  ShardRouter(std::uint32_t shards, std::uint32_t virtual_nodes = 64,
              ShardAssign assign = ShardAssign::kHash);

  std::uint32_t shard_for(std::uint32_t node) const;
  std::uint32_t shards() const { return shards_; }
  ShardAssign assign() const { return assign_; }

 private:
  std::uint32_t shards_;
  ShardAssign assign_;
  /// (point hash, shard), sorted by hash.  Empty for kModulo.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

/// Aggregator ledger.  Exact at quiescence (after stop()); the invariant
/// mirrors IsmStats::conserved one level down.
struct AggregatorStats {
  std::uint64_t batches_received = 0;
  std::uint64_t records_received = 0;
  std::uint64_t batches_forwarded = 0;   ///< uplink batches delivered
  /// Records handed to the uplink.  Counted before the push makes them
  /// visible to the root; a failed push moves them to lost_uplink.
  std::uint64_t records_forwarded = 0;
  /// Forwarded by this shard but destroyed on the root-bound uplink
  /// (closed link or exhausted retries) — the federation-boundary loss
  /// site, charged here exactly once.
  std::uint64_t lost_uplink = 0;
  /// Destroyed with this aggregator's death: the staged batch, the
  /// pre-reducer's held records, and everything drained after the crash.
  std::uint64_t lost_dead = 0;
  std::uint64_t still_held = 0;          ///< pre-reducer residue (snapshot)
  std::uint64_t staged = 0;              ///< staging occupancy (snapshot)
  std::uint64_t held_back = 0;           ///< pre-reducer hold-backs, total
  std::uint64_t expired_released = 0;    ///< force-released for dead sources
  std::uint64_t sources_dead = 0;

  bool conserved() const {
    return records_received == records_forwarded + lost_uplink + lost_dead +
                                   still_held + staged;
  }
};

/// One per-cluster aggregator ISM: consumes the cluster TP's receive links,
/// causally pre-reduces (scoped to its member nodes), and forwards the
/// ordered stream to the root over one uplink data link in fixed-size
/// batches.  The uplink send is fault-gated at FaultSite::kAggForward
/// (node = shard id): injected crashes kill the whole aggregator, after
/// which it keeps draining its cluster links as a tombstone, attributing
/// every arriving record as an agg_dead loss so the LIS ledgers — and the
/// end-to-end exactness invariant — stay intact.
class AggregatorIsm {
 public:
  /// `cluster_tp` carries the member LISes' streams; `uplink` is the root
  /// TP data link this shard ships on.  Both must outlive the aggregator.
  AggregatorIsm(std::uint32_t shard, TransferProtocol& cluster_tp,
                DataLink& uplink, std::vector<std::uint32_t> members,
                std::size_t batch_records, bool causal_ordering);
  ~AggregatorIsm();
  AggregatorIsm(const AggregatorIsm&) = delete;
  AggregatorIsm& operator=(const AggregatorIsm&) = delete;

  void start();
  /// Closes the cluster data links, drains in-flight batches, ships the
  /// staging remainder and joins the processor.  Idempotent.  Member LISes
  /// must be stopped first.
  void stop();

  std::uint32_t shard() const { return shard_; }
  const std::vector<std::uint32_t>& members() const { return members_; }
  AggregatorStats stats() const;
  /// True once the aggregator died (injected crash at kAggForward).
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  /// Declares a member node dead (its remaining records are known lost):
  /// the pre-reducer force-releases what the death stranded at drain time
  /// instead of stranding it as residue.
  void mark_source_dead(std::uint32_t node);

  /// Attaches the model-time observability sink (may be null).  The
  /// aggregator stamps no pipeline stages — it is transparent in the
  /// lineage chain — but attributes every record it destroys
  /// (agg_uplink / agg_dead / agg_queue).  Call before start().
  void set_observer(obs::PipelineObserver* o) { observer_ = o; }

  /// Attaches the fault plane (may be null).  Consulted at kAggForward
  /// once per uplink batch (plus once per retry).  Call before start().
  void set_fault(fault::FaultInjector* f, fault::RetryPolicy retry = {});

 private:
  void processor_main();
  void consume_batch(DataBatch&& batch);
  /// Appends one causally-released record to the staging batch, shipping
  /// when it reaches batch_records_.  Dead aggregators count the record as
  /// an agg_dead loss instead.
  void stage(const trace::EventRecord& r);
  /// Ships the staged records root-ward through the fault plane.
  void ship();
  /// Post-crash cleanup, run at the processor loop level (never from
  /// inside a reorderer callback): accounts the pre-reducer's held records
  /// as agg_dead losses.
  void finalize_death();

  std::uint32_t shard_;
  /// Lineage keys of the batch being shipped, reused across ships so an
  /// observed uplink send does not re-allocate the key list every time.
  std::vector<obs::LineageKey> keys_scratch_;
  TransferProtocol& tp_;
  DataLink& uplink_;
  std::vector<std::uint32_t> members_;
  std::size_t batch_records_;
  bool causal_;
  std::unique_ptr<trace::CausalReorderer> reorderer_;
  std::vector<trace::EventRecord> staging_;
  std::thread processor_;
  bool started_ = false;
  bool stopped_ = false;
  mutable std::mutex mu_;
  AggregatorStats stats_;
  std::vector<std::uint32_t> dead_sources_;  ///< guarded by mu_
  obs::PipelineObserver* observer_ = nullptr;
  std::atomic<fault::FaultInjector*> fault_{nullptr};
  fault::RetryPolicy retry_;
  std::mutex fault_mu_;
  stats::Rng backoff_rng_{0};
  std::atomic<bool> dead_{false};
  bool death_finalized_ = false;  ///< processor-thread-only
};

/// The federated face of IntegratedEnvironment: the same environment (one
/// constructor, lifecycle, roll-up and telemetry for every topology),
/// required to have an aggregator level — config.federation.shards >= 1.
/// Both levels run real transports (cluster level: config.tp_flavor; root
/// level: config.federation.root_tp, defaulting to the cluster flavor).
class FederatedEnvironment final : public IntegratedEnvironment {
 public:
  /// Throws std::invalid_argument when config.federation.shards == 0.
  explicit FederatedEnvironment(EnvironmentConfig config);

  Ism& root_ism() { return ism(); }
  TransferProtocol& root_tp() { return tp(); }
};

}  // namespace prism::core
