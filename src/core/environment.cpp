#include "core/environment.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/federation.hpp"

#if PRISM_OBS_ENABLED
#include <unistd.h>

#include <chrono>

#include "obs/live/endpoint.hpp"
#include "obs/live/expo.hpp"
#include "obs/live/flight.hpp"
#include "obs/live/health.hpp"
#include "obs/live/sampler.hpp"
#endif

namespace prism::core {

std::string_view to_string(LisStyle s) {
  switch (s) {
    case LisStyle::kBuffered: return "buffered";
    case LisStyle::kForwarding: return "forwarding";
    case LisStyle::kDaemon: return "daemon";
  }
  return "unknown";
}

std::string_view to_string(TelemetryMode m) {
  switch (m) {
    case TelemetryMode::kOff: return "off";
    case TelemetryMode::kUnix: return "unix";
    case TelemetryMode::kTcp: return "tcp";
  }
  return "unknown";
}

std::string_view to_string(ShardAssign a) {
  switch (a) {
    case ShardAssign::kHash: return "hash";
    case ShardAssign::kModulo: return "modulo";
  }
  return "unknown";
}

std::unique_ptr<FlushPolicy> make_flush_policy(const EnvironmentConfig& cfg) {
  switch (cfg.flush_policy) {
    case FlushPolicyKind::kFof: return std::make_unique<FlushOnFill>();
    case FlushPolicyKind::kFaof: return std::make_unique<FlushAllOnFill>();
    case FlushPolicyKind::kThreshold:
      return std::make_unique<ThresholdFlush>(cfg.flush_threshold_fraction);
    case FlushPolicyKind::kAdaptive:
      return std::make_unique<AdaptiveThresholdFlush>(
          cfg.adaptive_target_flush_ns);
  }
  throw std::invalid_argument("make_flush_policy: unknown policy");
}

IntegratedEnvironment::IntegratedEnvironment(EnvironmentConfig config)
    : config_(config) {
  if (config_.nodes == 0)
    throw std::invalid_argument("IntegratedEnvironment: 0 nodes");
  const FederationOptions& fed = config_.federation;
  const std::uint32_t shards = fed.shards;
  // SISO shares one data link per TP; MISO gives each of its nodes one.
  const auto data_links = [this](std::size_t nodes) -> std::size_t {
    return config_.ism.input == InputConfig::kSiso ? 1 : nodes;
  };
  std::vector<std::vector<std::uint32_t>> members;
  if (shards) {
    // Partition the nodes into clusters.  A shard's member list is in
    // global node order, and a node's cluster-local link index is its
    // position in it.
    router_ = std::make_unique<ShardRouter>(shards, fed.virtual_nodes,
                                            fed.assign);
    members.resize(shards);
    for (std::uint32_t n = 0; n < config_.nodes; ++n)
      members[router_->shard_for(n)].push_back(n);
  }

  // Root level.  Flat, the LISes are its nodes.  Federated, the aggregators
  // are: one data link per shard (MISO across shards), over the root
  // level's own transport flavor.
  IsmConfig root_cfg = config_.ism;
  if (shards) {
    tp_ = std::make_unique<TransferProtocol>(
        fed.root_tp.value_or(config_.tp_flavor), shards, shards,
        config_.link_capacity);
    root_cfg.input = shards == 1 ? InputConfig::kSiso : InputConfig::kMiso;
  } else {
    tp_ = std::make_unique<TransferProtocol>(
        config_.tp_flavor, config_.nodes, data_links(config_.nodes),
        config_.link_capacity);
  }
  // kSocket and kShm have real data planes: batches leave the process's
  // in-memory links and cross kernel stream sockets or shared-memory rings.
  tp_->enable_backend(config_.socket, config_.shm);
  ism_ = std::make_unique<Ism>(*tp_, root_cfg);

  lises_.resize(config_.nodes);
  if (!shards) {
    for (std::uint32_t n = 0; n < config_.nodes; ++n)
      lises_[n] = make_lis(n, *tp_, n);
    return;
  }
  // Cluster level: one TP + aggregator per shard, LISes wired to their
  // cluster-local links.  Consistent hashing can leave a shard empty; the
  // TP still needs one node slot, and the idle aggregator just drains
  // nothing.
  cluster_tps_.reserve(shards);
  aggregators_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto& m = members[s];
    const std::size_t cluster_nodes = std::max<std::size_t>(1, m.size());
    auto tp = std::make_unique<TransferProtocol>(
        config_.tp_flavor, cluster_nodes, data_links(cluster_nodes),
        config_.link_capacity);
    tp->enable_backend(config_.socket, config_.shm);
    // LISes keep their *global* node id (record routing, fault lanes,
    // causal streams) but send on their cluster-local link.
    for (std::uint32_t i = 0; i < m.size(); ++i)
      lises_[m[i]] = make_lis(m[i], *tp, i);
    aggregators_.push_back(std::make_unique<AggregatorIsm>(
        s, *tp, tp_->data_link(s), std::move(members[s]),
        fed.agg_batch_records, config_.ism.causal_ordering));
    cluster_tps_.push_back(std::move(tp));
  }
}

std::unique_ptr<Lis> IntegratedEnvironment::make_lis(std::uint32_t node,
                                                     TransferProtocol& tp,
                                                     std::uint32_t local) {
  switch (config_.lis_style) {
    case LisStyle::kBuffered:
      return std::make_unique<BufferedLis>(
          node, config_.local_buffer_capacity, make_flush_policy(config_),
          tp.data_link_for(local),
          config_.flush_policy == FlushPolicyKind::kFaof ? &coordinator_
                                                         : nullptr);
    case LisStyle::kForwarding:
      return std::make_unique<ForwardingLis>(node, tp.data_link_for(local));
    case LisStyle::kDaemon:
      return std::make_unique<DaemonLis>(
          node, config_.processes_per_node, config_.pipe_capacity,
          config_.sampling_period_ns, tp.data_link_for(local),
          &tp.control_link(local), config_.daemon_blocks_app_on_full_pipe,
          &probe_registry_);
  }
  throw std::invalid_argument("IntegratedEnvironment: unknown LIS style");
}

IntegratedEnvironment::~IntegratedEnvironment() {
  try {
    stop();
  } catch (...) {
    // Shutdown must not throw from a destructor.
  }
}

void IntegratedEnvironment::attach_tool(std::shared_ptr<Tool> tool) {
  ism_->attach_tool(std::move(tool));
}

void IntegratedEnvironment::start() {
  if (started_) return;
  started_ = true;
  ism_->start();
  for (auto& a : aggregators_) a->start();
  if (config_.telemetry.mode != TelemetryMode::kOff) {
#if PRISM_OBS_ENABLED
    if (config_.telemetry.period_ms == 0)
      throw std::invalid_argument("telemetry: period_ms must be > 0");
    obs::live::SamplerOptions so;
    so.period_ms = config_.telemetry.period_ms;
    sampler_ = std::make_unique<obs::live::TelemetrySampler>(
        so, [this](obs::live::HealthSnapshot& s) { collect_health(s); });
    obs::live::EndpointOptions eo;
    if (config_.telemetry.mode == TelemetryMode::kUnix) {
      eo.kind = obs::live::EndpointKind::kUnix;
      eo.address = config_.telemetry.endpoint.empty()
                       ? "/tmp/prism.telemetry." + std::to_string(::getpid()) +
                             ".sock"
                       : config_.telemetry.endpoint;
    } else {
      eo.kind = obs::live::EndpointKind::kTcp;
      eo.address = config_.telemetry.endpoint.empty()
                       ? "0"
                       : config_.telemetry.endpoint;
    }
    server_ = std::make_unique<obs::live::TelemetryServer>(
        eo, [this](std::string_view path, std::string& content_type,
                   std::string& body) {
          // Scrapes are cold: force a fresh sample so the reader never sees
          // one staler than the request itself.
          obs::live::HealthSnapshot hs;
          if (path == "/metrics" || path == "/") {
            sampler_->sample_now();
            const bool have = sampler_->read(hs);
            const auto now_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
            content_type = "text/plain; version=0.0.4";
            body = obs::live::prometheus_exposition(
                obs::Registry::instance().snapshot(), have ? &hs : nullptr,
                now_ns);
            return true;
          }
          if (path == "/health" || path == "/health.json") {
            sampler_->sample_now();
            if (!sampler_->read(hs)) return false;
            content_type = "application/json";
            body = obs::live::health_json(hs);
            return true;
          }
          if (path == "/flight" || path == "/flight.json") {
            content_type = "application/json";
            body = obs::live::FlightRecorder::instance().dump_json();
            return true;
          }
          return false;
        });
#else
    throw std::runtime_error(
        "telemetry requested but this build has PRISM_OBS=OFF");
#endif
  }
}

void IntegratedEnvironment::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
#if PRISM_OBS_ENABLED
  // The scrape surface goes down before the pipeline (its handler samples
  // live stats); the sampler outlives the drain so its terminal stop()
  // sample — still readable via telemetry_sampler()->read() — reflects the
  // quiescent, fully-drained ledger.
  if (server_) server_->stop();
#endif
  for (auto& l : lises_) l->stop();
  // Graceful degradation rolls dead sources up through every level: a dead
  // LIS stops being waited for at its shard's pre-reducer and at the root
  // merge, so the causal reorderers release the records its death stranded
  // instead of waiting for its lost sends — partial results, fully
  // delivered.  With no aggregator level only the root is told.
  for (std::uint32_t n = 0; n < lises_.size(); ++n) {
    if (!lises_[n]->dead()) continue;
    if (!aggregators_.empty())
      aggregators_[router_->shard_for(n)]->mark_source_dead(n);
    ism_->mark_source_dead(n);
  }
  for (auto& a : aggregators_) a->stop();
  // A dead aggregator takes its whole cluster's remaining stream with it:
  // the root expires the shard as a group, so holds between two of its
  // members resolve instead of stranding.
  for (auto& a : aggregators_)
    if (a->dead()) ism_->mark_sources_dead(a->members());
  ism_->stop();
#if PRISM_OBS_ENABLED
  if (sampler_) sampler_->stop();
#endif
}

Lis& IntegratedEnvironment::lis(std::uint32_t node) {
  if (node >= lises_.size())
    throw std::out_of_range("IntegratedEnvironment: bad node");
  return *lises_[node];
}

void IntegratedEnvironment::check_shard(std::uint32_t shard) const {
  if (shard >= aggregators_.size())
    throw std::out_of_range("IntegratedEnvironment: bad shard");
}

AggregatorIsm& IntegratedEnvironment::aggregator(std::uint32_t shard) {
  check_shard(shard);
  return *aggregators_[shard];
}

TransferProtocol& IntegratedEnvironment::cluster_tp(std::uint32_t shard) {
  check_shard(shard);
  return *cluster_tps_[shard];
}

const ShardRouter& IntegratedEnvironment::router() const {
  if (!router_)
    throw std::out_of_range("IntegratedEnvironment: flat, no shard router");
  return *router_;
}

std::uint32_t IntegratedEnvironment::shard_of(std::uint32_t node) const {
  if (node >= lises_.size())
    throw std::out_of_range("IntegratedEnvironment: bad node");
  return router().shard_for(node);
}

const std::vector<std::uint32_t>& IntegratedEnvironment::shard_members(
    std::uint32_t shard) const {
  check_shard(shard);
  return aggregators_[shard]->members();
}

AggregatorStats IntegratedEnvironment::aggregator_stats(
    std::uint32_t shard) const {
  check_shard(shard);
  return aggregators_[shard]->stats();
}

void IntegratedEnvironment::flush_all() {
  for (auto& l : lises_) l->flush();
}

LisStats IntegratedEnvironment::total_lis_stats() const {
  LisStats total;
  for (const auto& l : lises_) total += l->stats();
  return total;
}

LisStats IntegratedEnvironment::shard_lis_stats(std::uint32_t shard) const {
  check_shard(shard);
  LisStats total;
  for (const std::uint32_t n : aggregators_[shard]->members())
    total += lises_[n]->stats();
  return total;
}

void IntegratedEnvironment::set_observer(obs::PipelineObserver* o) {
  for (auto& l : lises_) l->set_observer(o);
  for (auto& a : aggregators_) a->set_observer(o);
  for (auto& tp : cluster_tps_) tp->set_observer(o);
  tp_->set_observer(o);
  ism_->set_observer(o);
}

void IntegratedEnvironment::set_fault(fault::FaultInjector* f,
                                      fault::RetryPolicy retry) {
  for (auto& l : lises_) l->set_fault(f, retry);
  for (auto& a : aggregators_) a->set_fault(f, retry);
  for (auto& tp : cluster_tps_) tp->set_fault(f, retry);
  tp_->set_fault(f, retry);
  ism_->set_fault(f);
}

// ---- the roll-up ------------------------------------------------------------
//
// The read ordering is the whole trick (StageHealth's contract): every row's
// completed counter, then its losses, are read before its admitted counter,
// so a record in completed/lost at read time is always already in admitted
// and the derived in_flight residue is non-negative in every sample.  One
// root-down pass gives every row that order: the root ISM (completions of
// the ism, uplink and pipeline rows), the root TP's wire losses, each
// shard's aggregator ledger (one consistent snapshot: the agg row; the
// completions of the wire row; the admissions of the uplink row) and its
// cluster TP's wire losses, then each LIS (losses, then admissions, under
// one lock per buffered or forwarding LIS).  The daemon LIS admits a benign
// inversion (its daemon can forward a piped record before the app thread
// counts it recorded), which latches StageHealth::torn instead of
// fabricating a negative residue.

struct IntegratedEnvironment::Reading {
  IsmStats root;
  std::uint64_t agg_received = 0;
  std::uint64_t agg_forwarded = 0;
  std::uint64_t agg_lost = 0;  ///< lost_uplink + lost_dead
  LisStats lis;
  /// Wire losses under the LISes (cluster TPs, or the root TP when flat)
  /// and on the root-bound uplink (federated only).
  std::uint64_t lis_wire_lost = 0;
  std::uint64_t uplink_wire_lost = 0;
  DegradationReport deg;  ///< records_lost_wire filled by the caller
};

void IntegratedEnvironment::read_shard(Reading& r, std::uint32_t s) const {
  const AggregatorStats as = aggregators_[s]->stats();
  if (aggregators_[s]->dead()) ++r.deg.shards_dead;
  r.agg_received += as.records_received;
  r.agg_forwarded += as.records_forwarded;
  r.agg_lost += as.lost_uplink + as.lost_dead;
  r.deg.records_lost_uplink += as.lost_uplink;
  r.deg.records_lost_agg += as.lost_dead;
  r.deg.holdback_expired += as.expired_released;
  r.deg.control_dropped += cluster_tps_[s]->control_dropped_total();
  r.lis_wire_lost += cluster_tps_[s]->wire_records_lost();
}

void IntegratedEnvironment::read_lis(Reading& r, const Lis& l) {
  if (l.dead()) ++r.deg.lises_dead;
  const LisStats s = l.stats();
  r.lis += s;
  r.deg.records_lost_send += s.lost_send;
  r.deg.records_lost_dead += s.lost_dead;
}

IntegratedEnvironment::Reading IntegratedEnvironment::read_levels() const {
  Reading r;
  r.root = ism_->stats();
  r.deg.tools_failed = r.root.tools_failed;
  r.deg.holdback_expired = r.root.expired_released;
  r.deg.control_dropped = tp_->control_dropped_total();
  (aggregators_.empty() ? r.lis_wire_lost : r.uplink_wire_lost) =
      tp_->wire_records_lost();
  for (std::uint32_t s = 0; s < aggregators_.size(); ++s) read_shard(r, s);
  for (const auto& l : lises_) read_lis(r, *l);
  r.deg.records_lost_wire = r.lis_wire_lost + r.uplink_wire_lost;
  return r;
}

DegradationReport IntegratedEnvironment::degradation() const {
  return read_levels().deg;
}

DegradationReport IntegratedEnvironment::shard_degradation(
    std::uint32_t shard) const {
  check_shard(shard);
  Reading r;
  read_shard(r, shard);
  for (const std::uint32_t n : aggregators_[shard]->members())
    read_lis(r, *lises_[n]);
  r.deg.records_lost_wire = r.lis_wire_lost;
  return r.deg;
}

#if PRISM_OBS_ENABLED

void IntegratedEnvironment::collect_health(
    obs::live::HealthSnapshot& snap) const {
  const Reading r = read_levels();
  const LisStats& lis = r.lis;
  const DegradationReport& d = r.deg;
  const bool federated = !aggregators_.empty();
  // The TP the LISes send on: every cluster TP shares one flavor.
  const TransferProtocol& lis_tp = federated ? *cluster_tps_.front() : *tp_;

  snap.add_stage("lis", lis.recorded, lis.records_forwarded,
                 lis.lost_send + lis.lost_dead, lis.dropped);
  if (lis_tp.backend_enabled())
    snap.add_stage("wire", lis.records_forwarded,
                   federated ? r.agg_received : r.root.records_received,
                   r.lis_wire_lost);
  if (federated) {
    snap.add_stage("agg", r.agg_received, r.agg_forwarded, r.agg_lost);
    if (tp_->backend_enabled())
      snap.add_stage("uplink", r.agg_forwarded, r.root.records_received,
                     r.uplink_wire_lost);
  }
  snap.add_stage("ism", r.root.records_received, r.root.records_dispatched, 0);
  snap.add_stage("pipeline", lis.recorded, r.root.records_dispatched,
                 lis.lost_send + lis.lost_dead + d.records_lost_wire +
                     r.agg_lost,
                 lis.dropped);

  snap.lises_dead = d.lises_dead;
  snap.tools_failed = d.tools_failed;
  snap.records_lost_send = d.records_lost_send;
  snap.records_lost_dead = d.records_lost_dead;
  snap.records_lost_wire = d.records_lost_wire;
  snap.control_dropped = d.control_dropped;
  snap.holdback_expired = d.holdback_expired;
  snap.shards_dead = d.shards_dead;
  snap.records_lost_uplink = d.records_lost_uplink;
  snap.records_lost_agg = d.records_lost_agg;
}

std::string IntegratedEnvironment::telemetry_address() const {
  return server_ ? server_->address() : std::string();
}

#endif  // PRISM_OBS_ENABLED

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  os << "degradation: lises_dead=" << lises_dead
     << " tools_failed=" << tools_failed
     << " lost_send=" << records_lost_send
     << " lost_dead=" << records_lost_dead
     << " lost_wire=" << records_lost_wire
     << " control_dropped=" << control_dropped
     << " holdback_expired=" << holdback_expired;
  // Federation fields only when a federation produced the report — flat
  // topologies keep the historical single-level line.
  if (shards_dead || records_lost_uplink || records_lost_agg)
    os << " shards_dead=" << shards_dead
       << " lost_uplink=" << records_lost_uplink
       << " lost_agg=" << records_lost_agg;
  return os.str();
}

IsClassification IntegratedEnvironment::classification() const {
  IsClassification c;
  // Off-line when the only consumer path is the storage tier; a live tool
  // set makes it on-line.  We report the configuration's capability.
  c.analysis = config_.ism.storage_path ? AnalysisSupport::kOnOffline
                                        : AnalysisSupport::kOnline;
  c.synthesis = SynthesisApproach::kApplicationSpecific;  // configurable
  c.management = config_.flush_policy == FlushPolicyKind::kAdaptive
                     ? ManagementApproach::kAdaptive
                     : ManagementApproach::kStatic;
  c.evaluation = EvaluationApproach::kStructuredModeling;
  return c;
}

}  // namespace prism::core
