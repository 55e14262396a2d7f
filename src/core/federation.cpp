#include "core/federation.hpp"

#include <algorithm>
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

  tp_.drain_receive_links([this](Message& msg) {
    if (auto* batch = std::get_if<DataBatch>(&msg))
      consume_batch(std::move(*batch));
    if (dead_.load(std::memory_order_relaxed) && !death_finalized_)
      finalize_death();
  });

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
  // Counted forwarded before the push makes the batch visible to the root:
  // a root that has counted a record received must never read a shard
  // total without it (the health collector reads the root first, so the
  // uplink row would tear).  A failed push takes the count back.
  {
    std::lock_guard lk(mu_);
    ++stats_.batches_forwarded;
    stats_.records_forwarded += n;
  }
  if (uplink_.push(std::move(b))) {
    PRISM_OBS_COUNT_N("core.agg.records_forwarded", n);
    return;
  }
  // Root-bound link already closed — same boundary loss site.
  {
    std::lock_guard lk(mu_);
    --stats_.batches_forwarded;
    stats_.records_forwarded -= n;
    stats_.lost_uplink += n;
  }
  if (observer_) {
    const auto t = static_cast<double>(now_ns());
    for (const auto k : keys_scratch_)
      observer_->lineage.lose(k, obs::LossSite::kAggUplink, t);
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

EnvironmentConfig require_shards(EnvironmentConfig cfg) {
  if (!cfg.federation.enabled())
    throw std::invalid_argument(
        "FederatedEnvironment: federation.shards must be >= 1 "
        "(shards == 0 is the flat topology)");
  return cfg;
}

}  // namespace

FederatedEnvironment::FederatedEnvironment(EnvironmentConfig config)
    : IntegratedEnvironment(require_shards(std::move(config))) {}

}  // namespace prism::core
