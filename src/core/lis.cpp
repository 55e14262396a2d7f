#include "core/lis.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "core/clock.hpp"
#include "core/io_loop.hpp"
#include "core/probe_registry.hpp"
#include "obs/live/flight.hpp"
#include "obs/obs.hpp"

namespace prism::core {

// ---------------------------------------------------------------- Lis

Lis::SendOutcome Lis::tp_send(DataLink& link, DataBatch&& batch) {
  fault::FaultInjector* inj = fault_.load(std::memory_order_acquire);
  if (!inj)
    return link.push(std::move(batch)) ? SendOutcome::kDelivered
                                       : SendOutcome::kClosed;
  std::uint32_t attempt = 0;
  for (;;) {
    const auto f = inj->consult(fault::FaultSite::kTpSend, node_);
    if (f.kind == fault::FaultKind::kCrash) {
      // exchange (not store) so exactly one lis_crash event per component
      // death reaches the flight recorder, whichever path latched it.
      if (!dead_.exchange(true, std::memory_order_relaxed))
        PRISM_OBS_FLIGHT("lis_crash", "tp_send", node_, 1);
      return SendOutcome::kCrashed;
    }
    if (f.kind == fault::FaultKind::kStall ||
        f.kind == fault::FaultKind::kSlowConsumer)
      fault::sleep_ns(f.stall_ns);
    if (f.kind != fault::FaultKind::kSendFail) {
      return link.push(std::move(batch)) ? SendOutcome::kDelivered
                                         : SendOutcome::kClosed;
    }
    PRISM_OBS_COUNT("core.tp.send_faults");
    if (++attempt >= retry_.max_attempts) return SendOutcome::kExhausted;
    PRISM_OBS_COUNT("core.tp.send_retries");
    PRISM_OBS_FLIGHT("retry", "tp_send", node_, attempt);
    std::uint64_t backoff;
    {
      std::lock_guard lk(fault_mu_);
      backoff = retry_.backoff_ns(attempt, backoff_rng_);
    }
    fault::sleep_ns(backoff);
  }
}

// ---------------------------------------------------------------- FlushCoordinator

void FlushCoordinator::attach(BufferedLis* lis) {
  std::lock_guard lk(mu_);
  members_.push_back(lis);
}

void FlushCoordinator::detach(BufferedLis* lis) {
  std::lock_guard lk(mu_);
  members_.erase(std::remove(members_.begin(), members_.end(), lis),
                 members_.end());
}

void FlushCoordinator::flush_all() {
  // A gang flush triggered from within a gang flush (another buffer filled
  // while we were flushing) folds into the ongoing one.
  bool expected = false;
  if (!in_progress_.compare_exchange_strong(expected, true)) return;
  std::vector<BufferedLis*> snapshot;
  {
    std::lock_guard lk(mu_);
    snapshot = members_;
  }
  {
    PRISM_OBS_SPAN("lis.gang_flush", "core");
    for (BufferedLis* l : snapshot) l->flush();
  }
  ++gang_flushes_;
  PRISM_OBS_COUNT("core.lis.gang_flushes");
  in_progress_.store(false);
}

// ---------------------------------------------------------------- BufferedLis

namespace {

/// Uninitialized storage for `capacity` records.  A byte array implicitly
/// creates the records that slot writes then assign.
std::unique_ptr<std::byte[]> slot_storage(std::size_t capacity) {
  if (capacity == 0 ||
      capacity > std::numeric_limits<std::size_t>::max() /
                     sizeof(trace::EventRecord))
    throw std::invalid_argument("BufferedLis: capacity out of range");
  return std::unique_ptr<std::byte[]>(
      new std::byte[capacity * sizeof(trace::EventRecord)]);
}

}  // namespace

BufferedLis::BufferedLis(std::uint32_t node, std::size_t buffer_capacity,
                         std::unique_ptr<FlushPolicy> policy, DataLink& to_ism,
                         FlushCoordinator* coordinator)
    : Lis(node),
      capacity_(buffer_capacity),
      storage_(slot_storage(buffer_capacity)),
      slots_(reinterpret_cast<trace::EventRecord*>(storage_.get())),
      policy_(std::move(policy)),
      link_(to_ism),
      coordinator_(coordinator),
      tl_buffer_("lis" + std::to_string(node) + ".buffer") {
  if (!policy_) throw std::invalid_argument("BufferedLis: null policy");
  if (policy_->global() && !coordinator_)
    throw std::invalid_argument(
        "BufferedLis: a global (FAOF) policy needs a FlushCoordinator");
  // No other thread can see this LIS yet.
  arm_trigger_locked();
  reopen_locked(0);
  if (coordinator_) coordinator_->attach(this);
}

BufferedLis::~BufferedLis() {
  if (coordinator_) coordinator_->detach(this);
}

void BufferedLis::record(const trace::EventRecord& r) {
  if (!observer_) {
    // A closed word carries kClosed, so `c` then fails the bound.
    const std::uint64_t c = claims_.word.fetch_add(1, std::memory_order_acquire);
    if (c < capacity_) {
      slots_[c] = r;
      claims_.published.fetch_add(1, std::memory_order_release);
      if (c + 1 >= claims_.trigger.load(std::memory_order_relaxed))
        record_locked(nullptr);  // this claim reached the trigger
      return;
    }
  }
  record_locked(&r);  // closed, overshooting a full buffer, or observed
}

void BufferedLis::record_locked(const trace::EventRecord* r) {
  bool trigger_global = false;
  {
    std::lock_guard lk(mu_);
    std::size_t size = close_locked();
    if (r && stopped_) return;
    if (r && dead()) {
      ++stats_.dropped;
      PRISM_OBS_COUNT("core.lis.dropped");
      if (observer_) {
        const auto k = obs_key(*r);
        const auto t = static_cast<double>(now_ns());
        if (obs_capture_) observer_->lineage.offer(k, t);
        observer_->lineage.lose(k, obs::LossSite::kLisDead, t);
      }
      return;
    }
    const bool global = policy_->global();
    const auto due = [&] {
      return !stopped_ &&
             size >= claims_.trigger.load(std::memory_order_relaxed);
    };
    if (r) {
      // Another claim reached the trigger but has not flushed yet: flush on
      // its behalf first, so this record lands in the next buffer exactly
      // as if the two had been serialized.  A gang flush is the
      // coordinator's to run, so under FAOF the record is dropped instead.
      if (!global && due()) size = flush_locked(size);
      const bool accepted = size < capacity_;
      if (accepted) {
        slots_[size++] = *r;
      } else {
        ++stats_.dropped;
        PRISM_OBS_COUNT("core.lis.dropped");
        // A drop samples a full buffer; accepted records are sampled when
        // their buffer is flushed.
        PRISM_OBS_HIST_B("core.lis.buffer_occupancy_pct",
                         ::prism::obs::Histogram::percent_bounds(), 100.0);
      }
      if (observer_) {
        const auto k = obs_key(*r);
        const auto t = static_cast<double>(now_ns());
        if (obs_capture_) observer_->lineage.offer(k, t);
        if (accepted) {
          observer_->lineage.stamp(k, obs::PipelineStage::kLisEnqueue, t);
        } else {
          observer_->lineage.lose(k, obs::LossSite::kLisBuffer, t);
        }
        observer_->timeline.sample_changed(tl_buffer_, t,
                                           static_cast<double>(size));
      }
    }
    if (due()) {
      if (global) {
        trigger_global = true;  // coordinator flushes everyone, incl. us
      } else {
        size = flush_locked(size);
      }
    }
    reopen_locked(size);
  }
  if (trigger_global) coordinator_->flush_all();
}

std::size_t BufferedLis::close_locked() {
  const std::uint64_t c =
      claims_.word.fetch_or(kClosed, std::memory_order_relaxed);
  // Already closed: stopped or dead, and nothing can claim a slot.
  if (c & kClosed) return claims_.published.load(std::memory_order_relaxed);
  // Every claim below capacity owns a slot and is about to publish it; the
  // acquire load that sees the last one makes every slot's record visible.
  const std::uint64_t n = std::min<std::uint64_t>(c, capacity_);
  while (claims_.published.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
  return n;
}

void BufferedLis::arm_trigger_locked() {
  claims_.trigger.store(
      std::clamp<std::size_t>(policy_->trigger(capacity_), 1, capacity_ + 1),
      std::memory_order_relaxed);
}

void BufferedLis::reopen_locked(std::size_t size) {
  if (stopped_ || dead()) return;  // record() keeps taking mu_
  claims_.published.store(size, std::memory_order_relaxed);
  // Release: a claim that reads this value sees the current trigger and
  // finds its slot already read out by the flush that emptied it.
  claims_.word.store(size, std::memory_order_release);
}

void BufferedLis::flush() {
  std::lock_guard lk(mu_);
  reopen_locked(flush_locked(close_locked()));
}

std::size_t BufferedLis::flush_locked(std::size_t n) {
  if (n == 0) return 0;
  if (dead()) return n;  // a dead LIS ships nothing (its last flush emptied it)
  PRISM_OBS_SPAN("lis.flush", "core");
  const std::uint64_t t0 = now_ns();
  DataBatch batch;
  batch.source_node = node_;
  batch.t_sent_ns = t0;
  // Copy into recycled batch storage (BatchArena): a steady-state flush
  // allocates nothing.
  batch.records = BatchArena::instance().acquire_reserved(capacity_);
  batch.records.assign(slots_, slots_ + n);
  claims_.published.store(0, std::memory_order_relaxed);
  // The capture telemetry is settled here, once per buffer: the record at
  // position k saw occupancy k when it was appended.
  stats_.recorded += n;
  PRISM_OBS_COUNT_N("core.lis.recorded", n);
  PRISM_OBS_HIST_SERIES_B(
      "core.lis.buffer_occupancy_pct",
      ::prism::obs::Histogram::percent_bounds(), n, [this](std::uint64_t k) {
        return 100.0 * static_cast<double>(k) / static_cast<double>(capacity_);
      });
  policy_->observe_batch(batch.records);
  arm_trigger_locked();  // the next buffer's trigger
  std::vector<obs::LineageKey>& keys = keys_scratch_;
  keys.clear();
  if (observer_) {
    const auto ts = static_cast<double>(t0);
    keys.reserve(n);
    for (const auto& r : batch.records) {
      keys.push_back(obs_key(r));
      observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kLisForward, ts);
    }
    observer_->timeline.sample_changed(tl_buffer_, ts, 0.0);
  }
  // Ship while holding mu_ with the claim word closed.  PICL semantics are
  // that the *application* pays for the flush ("data collection stops" /
  // processes are context-switched): record() blocks for the duration of the
  // flush, which is what the FOF/FAOF analysis measures.
  const SendOutcome out = tp_send(link_, std::move(batch));
  switch (out) {
    case SendOutcome::kDelivered:
      ++stats_.flushes;
      stats_.records_forwarded += n;
      PRISM_OBS_COUNT("core.lis.flushes");
      PRISM_OBS_COUNT_N("core.lis.records_forwarded", n);
      PRISM_OBS_COUNT("core.tp.batches_pushed");
      break;
    case SendOutcome::kClosed:
    case SendOutcome::kExhausted: {
      // The batch is destroyed, not forwarded: a closed link counted as a
      // forward used to make conserved() lie at shutdown.
      stats_.lost_send += n;
      PRISM_OBS_COUNT_N("core.lis.records_lost_send", n);
      PRISM_OBS_FLIGHT("send_loss",
                       out == SendOutcome::kClosed ? "link_closed"
                                                   : "retry_exhausted",
                       node_, n);
      if (observer_) {
        const auto tl = static_cast<double>(now_ns());
        const auto site = out == SendOutcome::kClosed
                              ? obs::LossSite::kTpSendFailed
                              : obs::LossSite::kRetryExhausted;
        for (const auto& k : keys) observer_->lineage.lose(k, site, tl);
      }
      break;
    }
    case SendOutcome::kCrashed:
      stats_.lost_dead += n;
      PRISM_OBS_COUNT_N("core.lis.records_lost_dead", n);
      PRISM_OBS_FLIGHT("dead_loss", "crash_in_flush", node_, n);
      if (observer_) {
        const auto tl = static_cast<double>(now_ns());
        for (const auto& k : keys)
          observer_->lineage.lose(k, obs::LossSite::kLisDead, tl);
      }
      break;
  }
  stats_.flush_time_ns += now_ns() - t0;
  return 0;
}

void BufferedLis::stop() {
  std::lock_guard lk(mu_);
  if (stopped_) return;
  flush_locked(close_locked());
  stopped_ = true;  // the claim word stays closed
}

LisStats BufferedLis::stats() const {
  std::lock_guard lk(mu_);
  LisStats out = stats_;
  // Published records are accepted and buffered; a claim not yet published
  // is not yet offered.
  out.buffered = claims_.published.load(std::memory_order_acquire);
  out.recorded += out.buffered;
  return out;
}

// ---------------------------------------------------------------- ForwardingLis

ForwardingLis::ForwardingLis(std::uint32_t node, DataLink& to_ism)
    : Lis(node), link_(to_ism) {}

void ForwardingLis::record(const trace::EventRecord& r) {
  if (stopped_.load(std::memory_order_relaxed)) return;
  const auto k = obs_key(r);
  if (dead()) {
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      if (obs_capture_) observer_->lineage.offer(k, t);
      observer_->lineage.lose(k, obs::LossSite::kLisDead, t);
    }
    ledger_.dropped.fetch_add(1, std::memory_order_relaxed);
    PRISM_OBS_COUNT("core.lis.dropped");
    return;
  }
  DataBatch batch;
  batch.source_node = node_;
  batch.t_sent_ns = now_ns();
  // Single-record batch on recycled storage — the consumer (ISM) returns
  // the vector to the BatchArena, so the per-event send stops allocating
  // once the pool is warm.
  batch.records = BatchArena::instance().acquire_reserved(1);
  batch.records.push_back(r);
  const auto t_sent = static_cast<double>(batch.t_sent_ns);
  if (observer_ && obs_capture_) observer_->lineage.offer(k, t_sent);
  switch (tp_send(link_, std::move(batch))) {
    case SendOutcome::kDelivered: {
      if (observer_) {
        // Bufferless forwarding: enqueue and forward are the same system call.
        observer_->lineage.stamp(k, obs::PipelineStage::kLisEnqueue, t_sent);
        observer_->lineage.stamp(k, obs::PipelineStage::kLisForward, t_sent);
      }
      ledger_.forwarded.fetch_add(1, std::memory_order_relaxed);
      PRISM_OBS_COUNT("core.lis.recorded");
      PRISM_OBS_COUNT("core.lis.records_forwarded");
      PRISM_OBS_COUNT("core.tp.batches_pushed");
      break;
    }
    case SendOutcome::kClosed: {
      // A refused record is a drop, full stop.  (This path used to bump
      // recorded up front AND dropped here, double-counting the record and
      // breaking conserved() whenever the link was closed.)
      if (observer_)
        observer_->lineage.lose(k, obs::LossSite::kTpBackpressure,
                                static_cast<double>(now_ns()));
      ledger_.dropped.fetch_add(1, std::memory_order_relaxed);
      PRISM_OBS_COUNT("core.lis.dropped");
      break;
    }
    case SendOutcome::kExhausted: {
      if (observer_)
        observer_->lineage.lose(k, obs::LossSite::kRetryExhausted,
                                static_cast<double>(now_ns()));
      ledger_.lost_send.fetch_add(1, std::memory_order_relaxed);
      PRISM_OBS_COUNT("core.lis.recorded");
      PRISM_OBS_COUNT("core.lis.records_lost_send");
      PRISM_OBS_FLIGHT("send_loss", "retry_exhausted", node_, 1);
      break;
    }
    case SendOutcome::kCrashed: {
      if (observer_)
        observer_->lineage.lose(k, obs::LossSite::kLisDead,
                                static_cast<double>(now_ns()));
      ledger_.lost_dead.fetch_add(1, std::memory_order_relaxed);
      PRISM_OBS_COUNT("core.lis.recorded");
      PRISM_OBS_COUNT("core.lis.records_lost_dead");
      PRISM_OBS_FLIGHT("dead_loss", "crash_in_send", node_, 1);
      break;
    }
  }
}

void ForwardingLis::stop() { stopped_.store(true, std::memory_order_relaxed); }

LisStats ForwardingLis::stats() const {
  LisStats s;
  s.records_forwarded = ledger_.forwarded.load(std::memory_order_relaxed);
  s.dropped = ledger_.dropped.load(std::memory_order_relaxed);
  s.lost_send = ledger_.lost_send.load(std::memory_order_relaxed);
  s.lost_dead = ledger_.lost_dead.load(std::memory_order_relaxed);
  s.flushes = s.records_forwarded;
  s.recorded = s.records_forwarded + s.lost_send + s.lost_dead;
  return s;
}

// ---------------------------------------------------------------- DaemonLis

DaemonLis::DaemonLis(std::uint32_t node, std::uint32_t n_processes,
                     std::size_t pipe_capacity,
                     std::uint64_t sampling_period_ns, DataLink& to_ism,
                     ControlLink* control, bool block_on_full_pipe,
                     ProbeRegistry* probes)
    : Lis(node),
      link_(to_ism),
      control_(control),
      probes_(probes),
      block_on_full_pipe_(block_on_full_pipe),
      sampling_period_ns_(sampling_period_ns),
      tl_backlog_("lis" + std::to_string(node) + ".pipe_backlog") {
  if (n_processes == 0) throw std::invalid_argument("DaemonLis: 0 processes");
  if (sampling_period_ns == 0)
    throw std::invalid_argument("DaemonLis: zero sampling period");
  pipes_.reserve(n_processes);
  for (std::uint32_t i = 0; i < n_processes; ++i)
    pipes_.push_back(
        std::make_unique<Channel<trace::EventRecord>>(pipe_capacity));
  running_.store(true);
  daemon_ = std::thread([this] { daemon_main(); });
}

DaemonLis::~DaemonLis() { stop(); }

void DaemonLis::record(const trace::EventRecord& r) {
  if (r.process >= pipes_.size())
    throw std::out_of_range("DaemonLis::record: unknown process");
  if (dead()) {
    // The daemon process is gone; nothing will ever drain the pipes again.
    if (observer_) {
      const auto k = obs_key(r);
      const auto t = static_cast<double>(now_ns());
      if (obs_capture_) observer_->lineage.offer(k, t);
      observer_->lineage.lose(k, obs::LossSite::kLisDead, t);
    }
    std::lock_guard lk(mu_);
    ++stats_.dropped;
    PRISM_OBS_COUNT("core.lis.dropped");
    return;
  }
  auto& pipe = *pipes_[r.process];
  bool ok;
  if (block_on_full_pipe_) {
    ok = pipe.push(r);  // may block: the §3.2.3 application stall
  } else {
    ok = pipe.try_push(r);
  }
  if (observer_) {
    const auto k = obs_key(r);
    const auto t = static_cast<double>(now_ns());
    if (obs_capture_) observer_->lineage.offer(k, t);
    if (ok) {
      observer_->lineage.stamp(k, obs::PipelineStage::kLisEnqueue, t);
    } else {
      observer_->lineage.lose(k, obs::LossSite::kLisPipe, t);
    }
    observer_->timeline.sample_changed(tl_backlog_, t,
                                       static_cast<double>(pipe.size()));
  }
  std::lock_guard lk(mu_);
  if (ok) {
    ++stats_.recorded;
    PRISM_OBS_COUNT("core.lis.recorded");
  } else {
    ++stats_.dropped;
    PRISM_OBS_COUNT("core.lis.dropped");
  }
}

void DaemonLis::daemon_main() {
  while (running_.load(std::memory_order_relaxed)) {
    const auto period = std::chrono::nanoseconds(
        sampling_period_ns_.load(std::memory_order_relaxed));
    std::this_thread::sleep_for(period);
    if (auto* inj = fault_.load(std::memory_order_acquire)) {
      const auto f = inj->consult(fault::FaultSite::kLisTick, node_);
      if (f.kind == fault::FaultKind::kCrash) {
        die();
        return;  // no final sweep: the daemon process no longer exists
      }
      if (f.kind == fault::FaultKind::kStall ||
          f.kind == fault::FaultKind::kSlowConsumer)
        fault::sleep_ns(f.stall_ns);
    }
    if (control_) {
      while (auto msg = control_->try_pop()) {
        if (msg->kind == ControlKind::kSetSamplingPeriod) {
          set_sampling_period_ns(static_cast<std::uint64_t>(msg->value));
        } else if (msg->kind == ControlKind::kShutdown) {
          running_.store(false);
        } else if (probes_ &&
                   (msg->kind == ControlKind::kEnableInstrumentation ||
                    msg->kind == ControlKind::kDisableInstrumentation)) {
          probes_->apply(*msg);
        }
      }
    }
    drain_once();
    if (dead()) return;  // crashed inside the drain's TP send
  }
  drain_once();  // final sweep
}

void DaemonLis::die() {
  if (!dead_.exchange(true, std::memory_order_relaxed))
    PRISM_OBS_FLIGHT("lis_crash", "daemon_die", node_, 1);
  running_.store(false, std::memory_order_relaxed);
  // The daemon process is gone and its pipes die with it: close them so
  // blocked application writers wake (their pushes fail and count as drops),
  // and account every record still queued as a lis_dead loss so the
  // conservation ledger closes.
  std::uint64_t orphans = 0;
  const auto t = static_cast<double>(now_ns());
  for (auto& p : pipes_) {
    p->close();
    while (auto r = p->try_pop()) {
      ++orphans;
      if (observer_)
        observer_->lineage.lose(obs_key(*r), obs::LossSite::kLisDead, t);
    }
  }
  if (orphans > 0)
    PRISM_OBS_FLIGHT("dead_loss", "daemon_orphans", node_, orphans);
  std::lock_guard lk(mu_);
  stats_.lost_dead += orphans;
  PRISM_OBS_COUNT_N("core.lis.records_lost_dead", orphans);
}

void DaemonLis::drain_once() {
  PRISM_OBS_SPAN("lis.daemon_drain", "core");
  const std::uint64_t t0 = now_ns();
  DataBatch batch;
  batch.source_node = node_;
  batch.records = BatchArena::instance().acquire_reserved(pipes_.size());
  // "The local daemon collects the instrumentation data samples from the
  // head of each buffer, one at a time" (§3.2.2) — round-robin over pipe
  // heads until all pipes are momentarily empty.
  bool any = true;
  while (any) {
    any = false;
    for (auto& pipe : pipes_) {
      if (auto r = pipe->try_pop()) {
        batch.records.push_back(*r);
        any = true;
      }
    }
  }
  if (!batch.records.empty()) {
    const std::size_t n = batch.records.size();
    batch.t_sent_ns = now_ns();
    std::vector<obs::LineageKey> keys;
    if (observer_) {
      const auto ts = static_cast<double>(batch.t_sent_ns);
      keys.reserve(n);
      for (const auto& r : batch.records) {
        keys.push_back(obs_key(r));
        observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kLisForward,
                                 ts);
      }
      observer_->timeline.sample_changed(tl_backlog_, ts, 0.0);
    }
    const SendOutcome out = tp_send(link_, std::move(batch));
    switch (out) {
      case SendOutcome::kDelivered: {
        std::lock_guard lk(mu_);
        ++stats_.flushes;
        stats_.records_forwarded += n;
        PRISM_OBS_COUNT("core.lis.flushes");
        PRISM_OBS_COUNT_N("core.lis.records_forwarded", n);
        PRISM_OBS_COUNT("core.tp.batches_pushed");
        break;
      }
      case SendOutcome::kClosed:
      case SendOutcome::kExhausted: {
        if (observer_) {
          const auto tl = static_cast<double>(now_ns());
          const auto site = out == SendOutcome::kClosed
                                ? obs::LossSite::kTpSendFailed
                                : obs::LossSite::kRetryExhausted;
          for (const auto& k : keys) observer_->lineage.lose(k, site, tl);
        }
        std::lock_guard lk(mu_);
        stats_.lost_send += n;
        PRISM_OBS_COUNT_N("core.lis.records_lost_send", n);
        PRISM_OBS_FLIGHT("send_loss",
                         out == SendOutcome::kClosed ? "link_closed"
                                                     : "retry_exhausted",
                         node_, n);
        break;
      }
      case SendOutcome::kCrashed: {
        if (observer_) {
          const auto tl = static_cast<double>(now_ns());
          for (const auto& k : keys)
            observer_->lineage.lose(k, obs::LossSite::kLisDead, tl);
        }
        {
          std::lock_guard lk(mu_);
          stats_.lost_dead += n;
          PRISM_OBS_COUNT_N("core.lis.records_lost_dead", n);
          PRISM_OBS_FLIGHT("dead_loss", "crash_in_drain", node_, n);
        }
        die();  // the whole component is gone — drain pipe residue too
        break;
      }
    }
  } else {
    // Idle tick: hand the untouched storage straight back to the pool.
    BatchArena::instance().release(std::move(batch.records));
  }
  daemon_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void DaemonLis::flush() {
  if (!dead()) drain_once();
}

void DaemonLis::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) {
    // Already stopped — or died, in which case die() closed the pipes;
    // close() is idempotent, so just make sure and join.
    for (auto& p : pipes_) p->close();
    if (daemon_.joinable()) daemon_.join();
    return;
  }
  for (auto& p : pipes_) p->close();
  if (daemon_.joinable()) daemon_.join();
}

LisStats DaemonLis::stats() const {
  std::lock_guard lk(mu_);
  LisStats out = stats_;
  for (const auto& p : pipes_) out.buffered += p->size();
  return out;
}

std::uint64_t DaemonLis::app_block_time_ns() const {
  std::uint64_t total = 0;
  for (const auto& p : pipes_) total += p->stats().producer_block_ns;
  return total;
}

}  // namespace prism::core
