#include "core/environment.hpp"

#include <sstream>
#include <stdexcept>

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
  const std::size_t data_links =
      config_.ism.input == InputConfig::kSiso ? 1 : config_.nodes;
  tp_ = std::make_unique<TransferProtocol>(config_.tp_flavor, config_.nodes,
                                           data_links, config_.link_capacity);
  // kSocket and kShm have real data planes: batches leave the process's
  // in-memory links and cross kernel stream sockets or shared-memory rings.
  tp_->enable_backend(config_.socket, config_.shm);
  ism_ = std::make_unique<Ism>(*tp_, config_.ism);
  lises_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    switch (config_.lis_style) {
      case LisStyle::kBuffered:
        lises_.push_back(std::make_unique<BufferedLis>(
            n, config_.local_buffer_capacity, make_flush_policy(config_),
            tp_->data_link_for(n),
            config_.flush_policy == FlushPolicyKind::kFaof ? &coordinator_
                                                           : nullptr));
        break;
      case LisStyle::kForwarding:
        lises_.push_back(
            std::make_unique<ForwardingLis>(n, tp_->data_link_for(n)));
        break;
      case LisStyle::kDaemon:
        lises_.push_back(std::make_unique<DaemonLis>(
            n, config_.processes_per_node, config_.pipe_capacity,
            config_.sampling_period_ns, tp_->data_link_for(n),
            &tp_->control_link(n), config_.daemon_blocks_app_on_full_pipe,
            &probe_registry_));
        break;
    }
  }
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
  // Graceful degradation: tell the ISM which sources died before it drains,
  // so the causal reorderer stops waiting for their lost sends and releases
  // the records their death stranded — partial results, fully delivered.
  for (std::uint32_t n = 0; n < lises_.size(); ++n)
    if (lises_[n]->dead()) ism_->mark_source_dead(n);
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

void IntegratedEnvironment::flush_all() {
  for (auto& l : lises_) l->flush();
}

LisStats IntegratedEnvironment::total_lis_stats() const {
  LisStats total;
  for (const auto& l : lises_) {
    const LisStats s = l->stats();
    total.recorded += s.recorded;
    total.dropped += s.dropped;
    total.flushes += s.flushes;
    total.records_forwarded += s.records_forwarded;
    total.flush_time_ns += s.flush_time_ns;
    total.buffered += s.buffered;
    total.lost_send += s.lost_send;
    total.lost_dead += s.lost_dead;
  }
  return total;
}

void IntegratedEnvironment::set_observer(obs::PipelineObserver* o) {
  for (auto& l : lises_) l->set_observer(o);
  ism_->set_observer(o);
  tp_->set_observer(o);
}

void IntegratedEnvironment::set_fault(fault::FaultInjector* f,
                                      fault::RetryPolicy retry) {
  for (auto& l : lises_) l->set_fault(f, retry);
  ism_->set_fault(f);
  tp_->set_fault(f, retry);
}

#if PRISM_OBS_ENABLED

// The read ordering here is the whole trick (StageHealth's contract): for
// each stage row, the counters that can only grow *after* admission —
// completed, then losses — are read before the admitted counter, so a
// record in completed/lost at read time is always already in admitted and
// the derived in_flight residue is non-negative in every sample.  Buffered
// and forwarding LISes update their stats under one mutex (internally
// consistent per read); the daemon LIS admits a benign inversion (its
// daemon can forward a piped record before the app thread counts it
// recorded), which latches StageHealth::torn instead of fabricating a
// negative residue.
void IntegratedEnvironment::collect_health(
    obs::live::HealthSnapshot& snap) const {
  // 1. Downstream completions first.
  const IsmStats ism = ism_->stats();
  // 2. Losses second.
  const bool wire = tp_->socket_backend_enabled() || tp_->shm_backend_enabled();
  const std::uint64_t wire_lost = tp_->wire_records_lost();
  const std::uint64_t control_dropped = tp_->control_dropped_total();
  std::uint32_t lises_dead = 0;
  for (const auto& l : lises_)
    if (l->dead()) ++lises_dead;
  // 3. Admission counters last (one consistent per-LIS pass).
  const LisStats lis = total_lis_stats();

  snap.add_stage("lis", lis.recorded, lis.records_forwarded,
                 lis.lost_send + lis.lost_dead, lis.dropped);
  if (wire)
    snap.add_stage("wire", lis.records_forwarded, ism.records_received,
                   wire_lost);
  snap.add_stage("ism", ism.records_received, ism.records_dispatched, 0);
  snap.add_stage("pipeline", lis.recorded, ism.records_dispatched,
                 lis.lost_send + lis.lost_dead + wire_lost, lis.dropped);

  snap.lises_dead = lises_dead;
  snap.tools_failed = ism.tools_failed;
  snap.records_lost_send = lis.lost_send;
  snap.records_lost_dead = lis.lost_dead;
  snap.records_lost_wire = wire_lost;
  snap.control_dropped = control_dropped;
  snap.holdback_expired = ism.expired_released;
}

std::string IntegratedEnvironment::telemetry_address() const {
  return server_ ? server_->address() : std::string();
}

#endif  // PRISM_OBS_ENABLED

DegradationReport IntegratedEnvironment::degradation() const {
  DegradationReport d;
  for (const auto& l : lises_) {
    if (l->dead()) ++d.lises_dead;
    const LisStats s = l->stats();
    d.records_lost_send += s.lost_send;
    d.records_lost_dead += s.lost_dead;
  }
  const IsmStats is = ism_->stats();
  d.tools_failed = is.tools_failed;
  d.holdback_expired = is.expired_released;
  d.control_dropped = tp_->control_dropped_total();
  d.records_lost_wire = tp_->wire_records_lost();
  return d;
}

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
