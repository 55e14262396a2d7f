#include "core/federation.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/clock.hpp"
#include "core/io_loop.hpp"
#include "obs/live/flight.hpp"
#include "obs/obs.hpp"

namespace prism::core {

namespace {

/// splitmix64 finalizer — the repo's standard cheap mixer (same family the
/// fault plane's lane seeding uses).  Bijective, so distinct ring points
/// never collide.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

obs::LineageKey obs_key(const trace::EventRecord& r) {
  return obs::lineage_key(r.node, r.process, r.seq);
}

}  // namespace

// ------------------------------------------------------------- ShardRouter

ShardRouter::ShardRouter(std::uint32_t shards, std::uint32_t virtual_nodes,
                         ShardAssign assign)
    : shards_(shards), assign_(assign) {
  if (shards == 0)
    throw std::invalid_argument("ShardRouter: shards must be >= 1");
  if (assign == ShardAssign::kHash) {
    if (virtual_nodes == 0)
      throw std::invalid_argument("ShardRouter: virtual_nodes must be >= 1");
    ring_.reserve(static_cast<std::size_t>(shards) * virtual_nodes);
    for (std::uint32_t s = 0; s < shards; ++s)
      for (std::uint32_t v = 0; v < virtual_nodes; ++v)
        ring_.emplace_back(
            mix64((static_cast<std::uint64_t>(s) << 32) | v), s);
    std::sort(ring_.begin(), ring_.end());
  }
}

std::uint32_t ShardRouter::shard_for(std::uint32_t node) const {
  if (assign_ == ShardAssign::kModulo || shards_ == 1) return node % shards_;
  // First ring point clockwise of the key's hash (wrapping).
  const std::uint64_t h = mix64(node);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), h,
      [](std::uint64_t lhs, const std::pair<std::uint64_t, std::uint32_t>& p) {
        return lhs < p.first;
      });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

// ----------------------------------------------------------- AggregatorIsm

AggregatorIsm::AggregatorIsm(std::uint32_t shard, TransferProtocol& cluster_tp,
                             DataLink& uplink,
                             std::vector<std::uint32_t> members,
                             std::size_t batch_records, bool causal_ordering)
    : shard_(shard),
      tp_(cluster_tp),
      uplink_(uplink),
      members_(std::move(members)),
      batch_records_(batch_records),
      causal_(causal_ordering) {
  if (batch_records_ == 0)
    throw std::invalid_argument("AggregatorIsm: batch_records must be > 0");
}

AggregatorIsm::~AggregatorIsm() {
  try {
    stop();
  } catch (...) {
    // Shutdown must not throw from a destructor.
  }
}

void AggregatorIsm::set_fault(fault::FaultInjector* f,
                              fault::RetryPolicy retry) {
  retry_ = retry;
  {
    std::lock_guard lk(fault_mu_);
    backoff_rng_ = stats::Rng(
        stats::Rng::hash_seed(f ? f->seed() : 0, 0x116ull, shard_));
  }
  fault_.store(f, std::memory_order_release);
}

void AggregatorIsm::start() {
  std::lock_guard lk(mu_);
  if (started_) return;
  started_ = true;
  processor_ = std::thread([this] { processor_main(); });
}

void AggregatorIsm::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // Same drain choreography as Ism::stop(): closing the cluster data links
  // lets the processor consume everything in flight and exit; control links
  // stay open through the drain and close last.
  tp_.close_data_links();
  if (processor_.joinable()) processor_.join();
  tp_.close_control_links();
}

void AggregatorIsm::mark_source_dead(std::uint32_t node) {
  std::lock_guard lk(mu_);
  if (std::find(dead_sources_.begin(), dead_sources_.end(), node) !=
      dead_sources_.end())
    return;
  dead_sources_.push_back(node);
  ++stats_.sources_dead;
}

void AggregatorIsm::processor_main() {
  if (causal_) {
    reorderer_ = std::make_unique<trace::CausalReorderer>(
        [this](const trace::EventRecord& r) { stage(r); });
    // Pre-reduce within the shard only: a cross-shard peer's sends flow
    // through a different aggregator, so waiting for them here would strand
    // the recv forever.  The unscoped root reorderer enforces those pairs.
    reorderer_->restrict_scope(members_);
  }
  staging_ = BatchArena::instance().acquire_reserved(batch_records_);

  const std::size_t n_links = tp_.data_link_count();
  if (n_links == 1) {
    // SISO cluster: block on the single input link.
    while (auto msg = tp_.receive_link(0).pop()) {
      if (auto* batch = std::get_if<DataBatch>(&*msg))
        consume_batch(std::move(*batch));
      if (dead_.load(std::memory_order_relaxed) && !death_finalized_)
        finalize_death();
    }
  } else {
    // MISO cluster: round-robin over the per-member links (Ism's loop).
    std::size_t idle_spins = 0;
    for (;;) {
      bool any = false;
      bool all_done = true;
      for (std::size_t i = 0; i < n_links; ++i) {
        auto& link = tp_.receive_link(i);
        if (!link.closed() || link.size() > 0) all_done = false;
        if (auto msg = link.try_pop()) {
          any = true;
          if (auto* batch = std::get_if<DataBatch>(&*msg))
            consume_batch(std::move(*batch));
        }
      }
      if (dead_.load(std::memory_order_relaxed) && !death_finalized_)
        finalize_death();
      if (all_done) break;
      if (!any) {
        if (++idle_spins > 64)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        idle_spins = 0;
      }
    }
  }

  // Cluster input exhausted.
  if (!dead_.load(std::memory_order_relaxed)) {
    if (reorderer_) {
      // Stop waiting for dead members' lost sends before the final ship —
      // one group pass, so holds between two dead members resolve too.
      std::vector<std::uint32_t> dead_srcs;
      {
        std::lock_guard lk(mu_);
        dead_srcs = dead_sources_;
      }
      const std::size_t released = reorderer_->expire_nodes(dead_srcs);
      if (released) {
        std::lock_guard lk(mu_);
        stats_.expired_released += released;
        PRISM_OBS_COUNT_N("core.agg.expired_released", released);
      }
    }
    ship();  // the sub-batch-size remainder
  }
  // The final ship can itself draw the crash fault; re-check before
  // declaring residue.
  if (dead_.load(std::memory_order_relaxed)) {
    if (!death_finalized_) finalize_death();
  } else if (reorderer_) {
    // Whatever the pre-reducer still holds is causally unresolvable at this
    // level; it strands here (the root never sees it), attributed agg_queue.
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      for (const auto& r : reorderer_->held_records())
        observer_->lineage.lose(obs_key(r), obs::LossSite::kAggQueue, t);
    }
    std::lock_guard lk(mu_);
    stats_.still_held = reorderer_->held();
    stats_.held_back = reorderer_->held_back_total();
  }
  std::lock_guard lk(mu_);
  stats_.staged = staging_.size();
}

void AggregatorIsm::consume_batch(DataBatch&& batch) {
  const std::size_t n = batch.records.size();
  {
    std::lock_guard lk(mu_);
    ++stats_.batches_received;
    stats_.records_received += n;
  }
  PRISM_OBS_COUNT_N("core.agg.records_received", n);
  if (dead_.load(std::memory_order_relaxed)) {
    // Tombstone drain: a dead aggregator keeps consuming its cluster links
    // (so LIS sends still succeed and their ledgers stay untouched) but
    // everything that arrives dies with it.  This keeps the same-seed
    // ledger schedule-independent: the lost_send / lost_dead split at the
    // LISes never depends on when the aggregator died.
    {
      std::lock_guard lk(mu_);
      stats_.lost_dead += n;
    }
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      for (const auto& r : batch.records)
        observer_->lineage.lose(obs_key(r), obs::LossSite::kAggDead, t);
    }
    BatchArena::instance().release(std::move(batch.records));
    return;
  }
  if (reorderer_) {
    for (auto& r : batch.records) reorderer_->offer(r);
  } else {
    for (auto& r : batch.records) stage(r);
  }
  BatchArena::instance().release(std::move(batch.records));
  if (reorderer_ && !dead_.load(std::memory_order_relaxed)) {
    std::lock_guard lk(mu_);
    stats_.held_back = reorderer_->held_back_total();
    stats_.still_held = reorderer_->held();
  }
}

void AggregatorIsm::stage(const trace::EventRecord& r) {
  if (dead_.load(std::memory_order_relaxed)) {
    // A release that surfaced after the crash (the pre-reducer was still
    // draining when ship() died) — it dies with the aggregator.
    {
      std::lock_guard lk(mu_);
      ++stats_.lost_dead;
    }
    if (observer_)
      observer_->lineage.lose(obs_key(r), obs::LossSite::kAggDead,
                              static_cast<double>(now_ns()));
    return;
  }
  staging_.push_back(r);
  if (staging_.size() >= batch_records_) ship();
}

void AggregatorIsm::ship() {
  if (staging_.empty()) return;
  DataBatch b;
  b.source_node = shard_;  // uplink batches are keyed by shard, not node
  b.records = std::move(staging_);
  staging_ = BatchArena::instance().acquire_reserved(batch_records_);
  const std::size_t n = b.records.size();
  if (observer_) {
    keys_scratch_.clear();
    for (const auto& r : b.records) keys_scratch_.push_back(obs_key(r));
  }

  fault::FaultInjector* inj = fault_.load(std::memory_order_acquire);
  if (inj) {
    std::uint32_t attempt = 0;
    for (;;) {
      const auto f = inj->consult(fault::FaultSite::kAggForward, shard_);
      if (f.kind == fault::FaultKind::kCrash) {
        // The whole aggregator dies at the uplink send; the batch in hand
        // dies with it.  exchange (not store) so exactly one flight event
        // per shard death.
        if (!dead_.exchange(true, std::memory_order_relaxed))
          PRISM_OBS_FLIGHT("agg_crash", "forward", shard_, 1);
        {
          std::lock_guard lk(mu_);
          stats_.lost_dead += n;
        }
        if (observer_) {
          const auto t = static_cast<double>(now_ns());
          for (const auto k : keys_scratch_)
            observer_->lineage.lose(k, obs::LossSite::kAggDead, t);
        }
        BatchArena::instance().release(std::move(b.records));
        return;
      }
      if (f.kind == fault::FaultKind::kStall ||
          f.kind == fault::FaultKind::kSlowConsumer)
        fault::sleep_ns(f.stall_ns);
      if (f.kind != fault::FaultKind::kSendFail) break;
      PRISM_OBS_COUNT("core.agg.uplink_faults");
      if (++attempt >= retry_.max_attempts) {
        // Retry budget exhausted: the federation-boundary loss, charged to
        // this shard exactly once — the root never saw these records.
        {
          std::lock_guard lk(mu_);
          stats_.lost_uplink += n;
        }
        if (observer_) {
          const auto t = static_cast<double>(now_ns());
          for (const auto k : keys_scratch_)
            observer_->lineage.lose(k, obs::LossSite::kAggUplink, t);
        }
        BatchArena::instance().release(std::move(b.records));
        return;
      }
      PRISM_OBS_FLIGHT("retry", "agg_forward", shard_, attempt);
      std::uint64_t backoff;
      {
        std::lock_guard lk(fault_mu_);
        backoff = retry_.backoff_ns(attempt, backoff_rng_);
      }
      fault::sleep_ns(backoff);
    }
  }

  b.t_sent_ns = now_ns();
  if (uplink_.push(std::move(b))) {
    std::lock_guard lk(mu_);
    ++stats_.batches_forwarded;
    stats_.records_forwarded += n;
    PRISM_OBS_COUNT_N("core.agg.records_forwarded", n);
  } else {
    // Root-bound link already closed — same boundary loss site.
    {
      std::lock_guard lk(mu_);
      stats_.lost_uplink += n;
    }
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      for (const auto k : keys_scratch_)
        observer_->lineage.lose(k, obs::LossSite::kAggUplink, t);
    }
  }
}

void AggregatorIsm::finalize_death() {
  // Runs on the processor thread, at loop level — never from inside a
  // reorderer release callback, so reading the held set is safe.
  death_finalized_ = true;
  if (reorderer_) {
    const auto held = reorderer_->held_records();
    if (!held.empty()) {
      {
        std::lock_guard lk(mu_);
        stats_.lost_dead += held.size();
      }
      if (observer_) {
        const auto t = static_cast<double>(now_ns());
        for (const auto& r : held)
          observer_->lineage.lose(obs_key(r), obs::LossSite::kAggDead, t);
      }
    }
    // The reorderer stays allocated (stage() refuses everything while dead)
    // but its residue is now fully accounted as agg_dead, not still_held.
  }
  if (!staging_.empty()) {
    {
      std::lock_guard lk(mu_);
      stats_.lost_dead += staging_.size();
    }
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      for (const auto& r : staging_)
        observer_->lineage.lose(obs_key(r), obs::LossSite::kAggDead, t);
    }
    BatchArena::instance().release(std::move(staging_));
    staging_.clear();
  }
}

AggregatorStats AggregatorIsm::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

// ---------------------------------------------------- FederatedEnvironment

namespace {

const EnvironmentConfig& validate_federated(const EnvironmentConfig& cfg) {
  if (cfg.nodes == 0)
    throw std::invalid_argument("FederatedEnvironment: 0 nodes");
  if (!cfg.federation.enabled())
    throw std::invalid_argument(
        "FederatedEnvironment: federation.shards must be >= 1 "
        "(shards == 0 is the flat IntegratedEnvironment topology)");
  if (cfg.federation.agg_batch_records == 0)
    throw std::invalid_argument(
        "FederatedEnvironment: agg_batch_records must be > 0");
  if (cfg.telemetry.mode != TelemetryMode::kOff)
    throw std::invalid_argument(
        "FederatedEnvironment: telemetry is only wired to the flat topology");
  return cfg;
}

void accumulate(LisStats& total, const LisStats& s) {
  total.recorded += s.recorded;
  total.dropped += s.dropped;
  total.flushes += s.flushes;
  total.records_forwarded += s.records_forwarded;
  total.flush_time_ns += s.flush_time_ns;
  total.buffered += s.buffered;
  total.lost_send += s.lost_send;
  total.lost_dead += s.lost_dead;
}

}  // namespace

FederatedEnvironment::FederatedEnvironment(EnvironmentConfig config)
    : config_(validate_federated(config)),
      router_(config_.federation.shards, config_.federation.virtual_nodes,
              config_.federation.assign) {
  // Partition the nodes into clusters.  A shard's member list is in global
  // node order, and a node's cluster-local index is its position in it.
  members_.resize(router_.shards());
  node_shard_.resize(config_.nodes);
  node_local_.resize(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    const std::uint32_t s = router_.shard_for(n);
    node_shard_[n] = s;
    node_local_[n] = static_cast<std::uint32_t>(members_[s].size());
    members_[s].push_back(n);
  }

  // Root level: one data link per shard (MISO across shards), over its own
  // transport flavor.  Aggregators are the "nodes" of this TP.
  const TpFlavor root_flavor =
      config_.federation.root_tp.value_or(config_.tp_flavor);
  const std::uint32_t shards = router_.shards();
  root_tp_ = std::make_unique<TransferProtocol>(
      root_flavor, shards, shards, config_.link_capacity);
  root_tp_->enable_backend(config_.socket, config_.shm);
  IsmConfig root_cfg = config_.ism;
  root_cfg.input = shards == 1 ? InputConfig::kSiso : InputConfig::kMiso;
  root_ism_ = std::make_unique<Ism>(*root_tp_, root_cfg);

  // Cluster level: one TP + aggregator per shard, LISes wired to their
  // cluster-local links.  Consistent hashing can leave a shard empty; the
  // TP still needs one node slot, and the idle aggregator just drains
  // nothing.
  cluster_tps_.reserve(shards);
  aggregators_.reserve(shards);
  lises_.resize(config_.nodes);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto& m = members_[s];
    const std::size_t cluster_nodes = std::max<std::size_t>(1, m.size());
    const std::size_t data_links =
        config_.ism.input == InputConfig::kSiso ? 1 : cluster_nodes;
    auto tp = std::make_unique<TransferProtocol>(
        config_.tp_flavor, cluster_nodes, data_links, config_.link_capacity);
    tp->enable_backend(config_.socket, config_.shm);
    for (std::uint32_t i = 0; i < m.size(); ++i) {
      const std::uint32_t node = m[i];
      // LISes keep their *global* node id (record routing, fault lanes,
      // causal streams) but send on their cluster-local link.
      switch (config_.lis_style) {
        case LisStyle::kBuffered:
          lises_[node] = std::make_unique<BufferedLis>(
              node, config_.local_buffer_capacity, make_flush_policy(config_),
              tp->data_link_for(i),
              config_.flush_policy == FlushPolicyKind::kFaof ? &coordinator_
                                                             : nullptr);
          break;
        case LisStyle::kForwarding:
          lises_[node] =
              std::make_unique<ForwardingLis>(node, tp->data_link_for(i));
          break;
        case LisStyle::kDaemon:
          lises_[node] = std::make_unique<DaemonLis>(
              node, config_.processes_per_node, config_.pipe_capacity,
              config_.sampling_period_ns, tp->data_link_for(i),
              &tp->control_link(i), config_.daemon_blocks_app_on_full_pipe,
              &probe_registry_);
          break;
      }
    }
    aggregators_.push_back(std::make_unique<AggregatorIsm>(
        s, *tp, root_tp_->data_link(s), m,
        config_.federation.agg_batch_records, config_.ism.causal_ordering));
    cluster_tps_.push_back(std::move(tp));
  }
}

FederatedEnvironment::~FederatedEnvironment() {
  try {
    stop();
  } catch (...) {
    // Shutdown must not throw from a destructor.
  }
}

void FederatedEnvironment::attach_tool(std::shared_ptr<Tool> tool) {
  root_ism_->attach_tool(std::move(tool));
}

void FederatedEnvironment::start() {
  if (started_) return;
  started_ = true;
  root_ism_->start();
  for (auto& a : aggregators_) a->start();
}

void FederatedEnvironment::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& l : lises_) l->stop();
  // Graceful degradation rolls up the levels: a dead LIS must stop being
  // waited for both at its shard's pre-reducer and at the root merge.
  for (std::uint32_t n = 0; n < lises_.size(); ++n) {
    if (!lises_[n]->dead()) continue;
    aggregators_[node_shard_[n]]->mark_source_dead(n);
    root_ism_->mark_source_dead(n);
  }
  for (auto& a : aggregators_) a->stop();
  // A dead aggregator takes its whole cluster's remaining stream with it:
  // the root expires the shard as a group, so holds between two of its
  // members resolve instead of stranding.
  for (auto& a : aggregators_)
    if (a->dead()) root_ism_->mark_sources_dead(a->members());
  root_ism_->stop();
}

Lis& FederatedEnvironment::lis(std::uint32_t node) {
  if (node >= lises_.size())
    throw std::out_of_range("FederatedEnvironment: bad node");
  return *lises_[node];
}

AggregatorIsm& FederatedEnvironment::aggregator(std::uint32_t shard) {
  if (shard >= aggregators_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  return *aggregators_[shard];
}

TransferProtocol& FederatedEnvironment::cluster_tp(std::uint32_t shard) {
  if (shard >= cluster_tps_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  return *cluster_tps_[shard];
}

std::uint32_t FederatedEnvironment::shard_of(std::uint32_t node) const {
  if (node >= node_shard_.size())
    throw std::out_of_range("FederatedEnvironment: bad node");
  return node_shard_[node];
}

const std::vector<std::uint32_t>& FederatedEnvironment::shard_members(
    std::uint32_t shard) const {
  if (shard >= members_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  return members_[shard];
}

void FederatedEnvironment::flush_all() {
  for (auto& l : lises_) l->flush();
}

LisStats FederatedEnvironment::total_lis_stats() const {
  LisStats total;
  for (const auto& l : lises_) accumulate(total, l->stats());
  return total;
}

LisStats FederatedEnvironment::shard_lis_stats(std::uint32_t shard) const {
  if (shard >= members_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  LisStats total;
  for (const std::uint32_t n : members_[shard])
    accumulate(total, lises_[n]->stats());
  return total;
}

AggregatorStats FederatedEnvironment::aggregator_stats(
    std::uint32_t shard) const {
  if (shard >= aggregators_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  return aggregators_[shard]->stats();
}

DegradationReport FederatedEnvironment::degradation() const {
  DegradationReport d;
  for (const auto& l : lises_) {
    if (l->dead()) ++d.lises_dead;
    const LisStats s = l->stats();
    d.records_lost_send += s.lost_send;
    d.records_lost_dead += s.lost_dead;
  }
  for (std::uint32_t s = 0; s < aggregators_.size(); ++s) {
    const AggregatorStats as = aggregators_[s]->stats();
    if (aggregators_[s]->dead()) ++d.shards_dead;
    d.records_lost_uplink += as.lost_uplink;
    d.records_lost_agg += as.lost_dead;
    d.holdback_expired += as.expired_released;
    d.control_dropped += cluster_tps_[s]->control_dropped_total();
    d.records_lost_wire += cluster_tps_[s]->wire_records_lost();
  }
  const IsmStats is = root_ism_->stats();
  d.tools_failed = is.tools_failed;
  d.holdback_expired += is.expired_released;
  d.control_dropped += root_tp_->control_dropped_total();
  d.records_lost_wire += root_tp_->wire_records_lost();
  return d;
}

DegradationReport FederatedEnvironment::shard_degradation(
    std::uint32_t shard) const {
  if (shard >= aggregators_.size())
    throw std::out_of_range("FederatedEnvironment: bad shard");
  DegradationReport d;
  for (const std::uint32_t n : members_[shard]) {
    if (lises_[n]->dead()) ++d.lises_dead;
    const LisStats s = lises_[n]->stats();
    d.records_lost_send += s.lost_send;
    d.records_lost_dead += s.lost_dead;
  }
  const AggregatorStats as = aggregators_[shard]->stats();
  if (aggregators_[shard]->dead()) ++d.shards_dead;
  d.records_lost_uplink += as.lost_uplink;
  d.records_lost_agg += as.lost_dead;
  d.holdback_expired = as.expired_released;
  d.control_dropped = cluster_tps_[shard]->control_dropped_total();
  d.records_lost_wire = cluster_tps_[shard]->wire_records_lost();
  return d;
}

void FederatedEnvironment::set_observer(obs::PipelineObserver* o) {
  for (auto& l : lises_) l->set_observer(o);
  for (auto& a : aggregators_) a->set_observer(o);
  for (auto& tp : cluster_tps_) tp->set_observer(o);
  root_tp_->set_observer(o);
  root_ism_->set_observer(o);
}

void FederatedEnvironment::set_fault(fault::FaultInjector* f,
                                     fault::RetryPolicy retry) {
  for (auto& l : lises_) l->set_fault(f, retry);
  for (auto& a : aggregators_) a->set_fault(f, retry);
  for (auto& tp : cluster_tps_) tp->set_fault(f, retry);
  root_tp_->set_fault(f, retry);
  root_ism_->set_fault(f);
}

}  // namespace prism::core
