// The integrated parallel tool environment (§2.3, Fig. 3) — the top-level
// assembly that owns the whole IS and its tools.
//
// "An integrated parallel tool environment supports the use of multiple,
// possibly heterogeneous, tools that cooperate for carrying out one or more
// analyses of the same parallel program ... Clearly, the IS plays a central
// role in integration."
//
// IntegratedEnvironment wires a per-node LIS array, zero or more aggregator
// levels, a root TransferProtocol and a root Ism, and any number of tools,
// with a single start/stop lifecycle.  The pipeline is a tree of uniform
// stages: with federation.shards == 0 it has no aggregator level and the
// LISes send on the root TP (the flat IS of Fig. 3); with shards >= 1 the
// LISes send on per-cluster TPs to AggregatorIsms that forward to the root
// (DESIGN.md §16).  The LIS style, ISM input configuration, buffer
// capacities, flush policy and sampling period are all configuration — this
// is the "configurable testbed" role the paper assigns to Vista's P'RISM
// (§3.3), generalized to all three LIS styles.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/classification.hpp"
#include "core/ism.hpp"
#include "core/lis.hpp"
#include "core/probe_registry.hpp"
#include "core/transfer_protocol.hpp"
#include "obs/obs.hpp"

#if PRISM_OBS_ENABLED
namespace prism::obs::live {
struct HealthSnapshot;
class TelemetrySampler;
class TelemetryServer;
}  // namespace prism::obs::live
#endif

namespace prism::core {

class AggregatorIsm;    // federation.hpp
struct AggregatorStats;
class ShardRouter;

/// Which LIS implementation each node runs.
enum class LisStyle : std::uint8_t {
  kBuffered,    ///< PICL-style library buffers + flush policy
  kForwarding,  ///< Vista-style per-event forwarding
  kDaemon,      ///< Paradyn-style sampling daemon
};

std::string_view to_string(LisStyle s);

/// Flush policies selectable by name for buffered LISes.
enum class FlushPolicyKind : std::uint8_t { kFof, kFaof, kThreshold, kAdaptive };

/// Live telemetry plane (DESIGN.md §14): off, or a scrape endpoint over an
/// AF_UNIX socket / TCP loopback.  kOff is the default and leaves behavior
/// bit-identical to a build without the plane.
enum class TelemetryMode : std::uint8_t { kOff, kUnix, kTcp };

std::string_view to_string(TelemetryMode m);

struct TelemetryOptions {
  TelemetryMode mode = TelemetryMode::kOff;
  /// Sampler period.  Must be > 0 when the plane is on.
  std::uint64_t period_ms = 100;
  /// kUnix: socket path (empty = "/tmp/prism.telemetry.<pid>.sock").
  /// kTcp: loopback port as text (empty or "0" = ephemeral; read the real
  /// one back from telemetry_address()).
  std::string endpoint;
};

/// How LIS nodes are assigned to aggregator shards (DESIGN.md §16).
enum class ShardAssign : std::uint8_t {
  kHash,    ///< consistent hashing over a virtual-node ring (default)
  kModulo,  ///< node % shards (simple, but every resize remaps everything)
};

std::string_view to_string(ShardAssign a);

/// Two-level ISM federation (DESIGN.md §16): per-cluster aggregator ISMs
/// consume their cluster's LIS streams, causally pre-reduce them, and
/// forward re-batched record lineages over the root transport to a root ISM
/// that performs the global gap-tolerant merge.  shards == 0 leaves the IS
/// flat: zero aggregator levels, the LISes send on the root TP.
struct FederationOptions {
  /// Number of aggregator shards.  0 = flat (no federation); >= 1 builds
  /// the two-level topology (1 shard is a valid degenerate federation — the
  /// scaling curve's first point).
  std::uint32_t shards = 0;
  /// Ring replicas per shard for ShardAssign::kHash — more virtual nodes
  /// smooth the key distribution.
  std::uint32_t virtual_nodes = 64;
  ShardAssign assign = ShardAssign::kHash;
  /// Transport of the root level (aggregator -> root ISM).  Unset = same
  /// flavor as the cluster level (EnvironmentConfig::tp_flavor).  The two
  /// levels are independent: e.g. shm inside a cluster, sockets to the root.
  std::optional<TpFlavor> root_tp;
  /// Pre-reduction batch size: an aggregator ships its causally-ordered
  /// stream to the root in batches of exactly this many records (the drain
  /// remainder excepted).  Fixed-size uplink batches keep chaos ledgers
  /// schedule-independent: the k-th uplink send of a shard always carries
  /// the same record *count*, whatever the arrival interleaving was.
  std::size_t agg_batch_records = 256;

  bool enabled() const { return shards != 0; }
};

struct EnvironmentConfig {
  std::uint32_t nodes = 4;
  /// Application processes (threads) per node — used by the daemon LIS.
  std::uint32_t processes_per_node = 1;
  LisStyle lis_style = LisStyle::kBuffered;
  FlushPolicyKind flush_policy = FlushPolicyKind::kFof;
  std::size_t local_buffer_capacity = 1024;
  double flush_threshold_fraction = 0.8;          ///< for kThreshold
  std::uint64_t adaptive_target_flush_ns = 10'000'000;  ///< for kAdaptive
  std::uint64_t sampling_period_ns = 1'000'000;   ///< daemon LIS
  std::size_t pipe_capacity = 256;                ///< daemon LIS pipes
  bool daemon_blocks_app_on_full_pipe = true;
  TpFlavor tp_flavor = TpFlavor::kPipe;
  std::size_t link_capacity = 1024;
  /// Real-socket data plane (used only when tp_flavor == kSocket): address
  /// family, untrusted-header record bound, and write coalescing budget.
  SocketOptions socket;
  /// Shared-memory data plane (used only when tp_flavor == kShm): per-link
  /// ring capacity (power of two) and untrusted-header record bound.
  ShmOptions shm;
  IsmConfig ism;
  /// Live telemetry: sampler + scrape endpoint (DESIGN.md §14).  Requires a
  /// PRISM_OBS build when mode != kOff; start() throws otherwise rather than
  /// silently serving nothing.
  TelemetryOptions telemetry;
  /// ISM federation (DESIGN.md §16): federation.shards aggregator shards
  /// between the LISes and the root ISM, or none (0, the flat topology).
  /// FederatedEnvironment additionally requires shards >= 1.
  FederationOptions federation;
};

/// Builds the FlushPolicy the configuration names (one per buffered LIS).
std::unique_ptr<class FlushPolicy> make_flush_policy(
    const EnvironmentConfig& cfg);

/// How far an environment degraded during a run — the partial-result report
/// the lifecycle hands back after a chaotic run.  All counters are zero on a
/// fault-free run.
struct DegradationReport {
  std::uint32_t lises_dead = 0;        ///< LIS components that died
  std::uint64_t tools_failed = 0;      ///< tools isolated after crashing
  std::uint64_t records_lost_send = 0; ///< destroyed by TP send failures
  std::uint64_t records_lost_dead = 0; ///< destroyed with dead components
  /// Destroyed on the real data plane — socket wire or shm ring (frame
  /// corruption, mid-frame aborts, undelivered in-transit frames).  Zero
  /// for in-process flavors.
  std::uint64_t records_lost_wire = 0;
  std::uint64_t control_dropped = 0;   ///< control messages lost, all kinds
  /// Held-back records force-released because their source died.
  std::uint64_t holdback_expired = 0;
  /// Federation levels only (DESIGN.md §16); all zero on a flat topology.
  /// Aggregator shards that died (crash injection or organic failure).
  std::uint32_t shards_dead = 0;
  /// Forwarded by an aggregator but destroyed on the root-bound uplink —
  /// the federation-boundary loss site, attributed exactly once (at the
  /// shard, never also in the root's ledger).
  std::uint64_t records_lost_uplink = 0;
  /// Destroyed with a dead aggregator shard (staged, held, or drained after
  /// its crash).
  std::uint64_t records_lost_agg = 0;

  /// True when anything at all degraded.
  bool degraded() const {
    return lises_dead || tools_failed || records_lost_send ||
           records_lost_dead || records_lost_wire || control_dropped ||
           holdback_expired || shards_dead || records_lost_uplink ||
           records_lost_agg;
  }
  std::string to_string() const;
};

class IntegratedEnvironment {
 public:
  explicit IntegratedEnvironment(EnvironmentConfig config);
  ~IntegratedEnvironment();
  IntegratedEnvironment(const IntegratedEnvironment&) = delete;
  IntegratedEnvironment& operator=(const IntegratedEnvironment&) = delete;

  /// Attaches a tool to the root ISM.  Must be called before start().
  void attach_tool(std::shared_ptr<Tool> tool);

  void start();
  /// Stops LISes (flushing), rolls dead sources up through the aggregator
  /// level to the root, stops the aggregators (draining + final uplink
  /// flush), expires dead shards at the root, then stops the root ISM
  /// (draining) and finishes tools.
  void stop();

  Lis& lis(std::uint32_t node);
  /// The root ISM and its TP (the only ones when flat).
  Ism& ism() { return *ism_; }
  TransferProtocol& tp() { return *tp_; }
  /// Dynamic-instrumentation registry: register application probes here and
  /// they become controllable via kEnable/DisableInstrumentation messages
  /// (handled by daemon LISes).
  ProbeRegistry& probes() { return probe_registry_; }
  const EnvironmentConfig& config() const { return config_; }

  /// Convenience hot path: record an event through node `node`'s LIS.
  void record(std::uint32_t node, const trace::EventRecord& r) {
    lis(node).record(r);
  }
  /// Routes by the record's own node field.
  void record(const trace::EventRecord& r) { lis(r.node).record(r); }

  /// Gang flush (FAOF trigger or shutdown path).
  void flush_all();

  /// Aggregated LIS statistics across nodes.
  LisStats total_lis_stats() const;

  /// Aggregator shards (0 when flat).  Every shard accessor below throws
  /// std::out_of_range on a flat environment.
  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(aggregators_.size());
  }
  AggregatorIsm& aggregator(std::uint32_t shard);
  TransferProtocol& cluster_tp(std::uint32_t shard);
  const ShardRouter& router() const;
  std::uint32_t shard_of(std::uint32_t node) const;
  const std::vector<std::uint32_t>& shard_members(std::uint32_t shard) const;
  LisStats shard_lis_stats(std::uint32_t shard) const;
  AggregatorStats aggregator_stats(std::uint32_t shard) const;
  /// One shard's slice of the degradation report (its member LISes, its
  /// cluster wire, its aggregator's uplink/death ledger).
  DegradationReport shard_degradation(std::uint32_t shard) const;

  /// Attaches one model-time observability sink to every LIS, aggregator,
  /// TP and the root ISM (may be null to detach).  Call before start(); the
  /// LISes are the pipeline's capture points.
  void set_observer(obs::PipelineObserver* o);

  /// Attaches one fault plane to every LIS, aggregator, TP and the root ISM
  /// (may be null to detach; null is the default and leaves behavior
  /// bit-identical).  Call before start().
  void set_fault(fault::FaultInjector* f, fault::RetryPolicy retry = {});

  /// Partial-result accounting after (or during) a chaotic run, rolled up
  /// over every level: which components died and where records went (LIS
  /// losses, wire losses at both levels, the federation-boundary uplink
  /// site, dead shards, hold-back expiry at the aggregators and the root).
  /// stop() drains what remains reachable first, so completed work is
  /// delivered even when parts of the IS died mid-run.
  DegradationReport degradation() const;

  /// How this environment classifies along the §2.4 dimensions.
  IsClassification classification() const;

#if PRISM_OBS_ENABLED
  /// Fills the pipeline-specific snapshot fields: stage conservation rows
  /// ("lis"; "wire" when the LISes' TP has a real data plane; "agg" and,
  /// when the root TP has a real data plane, "uplink" on a federated
  /// environment; "ism"; "pipeline") and the DegradationReport mirror.
  /// Counters are read level by level from the root down, so each row's
  /// completed and lost counters are read before its admitted counter and
  /// the identity admitted == completed + lost + in_flight holds in every
  /// sample (see StageHealth).  Safe to call from any thread while the
  /// pipeline runs; the sampler's Collector is exactly this method.
  void collect_health(obs::live::HealthSnapshot& snap) const;

  /// Non-null between start() and destruction when telemetry is on.
  obs::live::TelemetrySampler* telemetry_sampler() { return sampler_.get(); }
  obs::live::TelemetryServer* telemetry_server() { return server_.get(); }
  /// The scrape address (unix path or "127.0.0.1:<port>"); empty when off.
  std::string telemetry_address() const;
#endif

 private:
  /// Counters of some part of the pipeline, read root-down (defined in
  /// environment.cpp).
  struct Reading;

  /// The one place a LisStyle becomes a Lis: node `node` sending on link
  /// `local` of `tp`.
  std::unique_ptr<Lis> make_lis(std::uint32_t node, TransferProtocol& tp,
                                std::uint32_t local);
  /// Throws std::out_of_range unless `shard` names an aggregator.
  void check_shard(std::uint32_t shard) const;
  /// Every level, root first, LIS admissions last.
  Reading read_levels() const;
  void read_shard(Reading& r, std::uint32_t shard) const;
  static void read_lis(Reading& r, const Lis& l);

  EnvironmentConfig config_;
  std::unique_ptr<ShardRouter> router_;   ///< null when flat
  std::unique_ptr<TransferProtocol> tp_;  ///< root level
  std::unique_ptr<Ism> ism_;
  std::vector<std::unique_ptr<TransferProtocol>> cluster_tps_;
  std::vector<std::unique_ptr<AggregatorIsm>> aggregators_;
  FlushCoordinator coordinator_;
  ProbeRegistry probe_registry_;
  std::vector<std::unique_ptr<Lis>> lises_;  ///< indexed by global node id
  bool started_ = false;
  bool stopped_ = false;
#if PRISM_OBS_ENABLED
  // Declared last: the sampler/server reference the pipeline members above
  // through collect_health(), so they must be destroyed first.
  std::unique_ptr<obs::live::TelemetrySampler> sampler_;
  std::unique_ptr<obs::live::TelemetryServer> server_;
#endif
};

}  // namespace prism::core
