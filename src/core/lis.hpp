// Local Instrumentation Servers (§2.2.1).
//
// "The Local Instrumentation Server (LIS) captures instrumentation data of
// interest from the concurrent application processes and forwards the data
// to other IS modules ... an LIS can simply comprise instrumentation library
// calls responsible for storing data in local buffers or forwarding data to
// analysis tools.  Or, as in Paradyn, it may consist of a separate process
// for each node of the concurrent system."
//
// Three live implementations, one per case study:
//   * BufferedLis   — PICL-style: library calls append to a local buffer;
//                     a FlushPolicy sets, per buffer, the occupancy at which
//                     it ships (FOF / FAOF / ...).
//   * ForwardingLis — Vista-style: "event forwarding involves only one
//                     system call per event" — no local buffering.
//   * DaemonLis     — Paradyn-style: application processes write samples to
//                     per-process pipes; a daemon thread drains the pipe
//                     heads every sampling period and forwards to the ISM.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/flush_policy.hpp"
#include "core/transfer_protocol.hpp"
#include "fault/fault.hpp"
#include "obs/pipeline.hpp"
#include "trace/record.hpp"

namespace prism::core {

struct LisStats {
  std::uint64_t recorded = 0;        ///< events accepted from the application
  std::uint64_t dropped = 0;         ///< events refused (overflow / dead LIS)
  std::uint64_t flushes = 0;         ///< batches shipped to the ISM
  std::uint64_t records_forwarded = 0;
  std::uint64_t flush_time_ns = 0;   ///< cumulative time in flush operations
  std::uint64_t buffered = 0;        ///< records still held locally (snapshot)
  /// Accepted records destroyed by a TP send failure (closed link or retry
  /// budget exhausted) — the fault plane's tp_send_failed/retry_exhausted
  /// loss sites.
  std::uint64_t lost_send = 0;
  /// Accepted records destroyed because this LIS died (crash injection or
  /// organic component death).
  std::uint64_t lost_dead = 0;

  /// Records offered by the application (accepted + refused).
  std::uint64_t records_in() const { return recorded + dropped; }
  /// Record-conservation invariant: every offered record is accounted for —
  /// forwarded toward the ISM, dropped, destroyed by a send failure or
  /// component death, or still buffered locally.  Exact at quiescence (after
  /// stop()); mid-run a record being moved between buffer and batch can be
  /// transiently uncounted.
  bool conserved() const {
    return records_in() ==
           records_forwarded + dropped + buffered + lost_send + lost_dead;
  }

  /// Field-wise sum (environment totals over nodes or shards).
  LisStats& operator+=(const LisStats& o) {
    recorded += o.recorded;
    dropped += o.dropped;
    flushes += o.flushes;
    records_forwarded += o.records_forwarded;
    flush_time_ns += o.flush_time_ns;
    buffered += o.buffered;
    lost_send += o.lost_send;
    lost_dead += o.lost_dead;
    return *this;
  }
};

class Lis {
 public:
  explicit Lis(std::uint32_t node) : node_(node) {}
  virtual ~Lis() = default;
  Lis(const Lis&) = delete;
  Lis& operator=(const Lis&) = delete;

  /// Hot path: accept one event from an application thread.  Thread-safe.
  virtual void record(const trace::EventRecord& r) = 0;
  /// Force any locally held data toward the ISM.
  virtual void flush() = 0;
  /// Stop accepting and shut down internal threads, flushing first.
  virtual void stop() = 0;
  virtual std::string_view kind() const = 0;

  std::uint32_t node() const { return node_; }
  virtual LisStats stats() const = 0;

  /// Attaches the model-time observability sink (may be null to detach).
  /// When `capture`, record() is the pipeline's lineage capture point; pass
  /// false when an upstream TracingThrottle already captures.  Call before
  /// concurrent record() traffic begins.
  void set_observer(obs::PipelineObserver* o, bool capture = true) {
    observer_ = o;
    obs_capture_ = capture;
  }

  /// Attaches the fault plane (may be null to detach; null is the default
  /// and leaves every code path bit-identical to pre-fault builds).  Call
  /// before traffic begins.  kTpSend is consulted once per shipped batch
  /// (plus once per retry); injected transient failures follow `retry`.
  /// The pointer is published with release/acquire ordering because the
  /// daemon style's tick thread is already running when this is callable
  /// (it starts in the constructor) — the policy and RNG writes below must
  /// be visible before the thread can observe a non-null injector.
  void set_fault(fault::FaultInjector* f, fault::RetryPolicy retry = {}) {
    retry_ = retry;
    {
      std::lock_guard lk(fault_mu_);
      backoff_rng_ = stats::Rng(
          stats::Rng::hash_seed(f ? f->seed() : 0, 0x115ull, node_));
    }
    fault_.store(f, std::memory_order_release);
  }

  /// True once this LIS has died (crash injection or organic failure).  A
  /// dead LIS refuses new records (attributed lis_dead) and ships nothing.
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

 protected:
  static obs::LineageKey obs_key(const trace::EventRecord& r) {
    return obs::lineage_key(r.node, r.process, r.seq);
  }

  /// Terminal outcome of a faulted TP send (see tp_send).
  enum class SendOutcome : std::uint8_t {
    kDelivered,  ///< the batch reached the data link
    kClosed,     ///< the link refused the batch (closed) — unretryable
    kExhausted,  ///< injected transient failures outlived the retry budget
    kCrashed,    ///< the fault plane declared this LIS dead at the send
  };

  /// Ships one batch through the fault plane: consults kTpSend, applies
  /// stalls, retries injected send failures with jittered backoff, and
  /// latches dead_ on an injected crash.  With a null injector this is
  /// exactly `link.push(std::move(batch))`.
  SendOutcome tp_send(DataLink& link, DataBatch&& batch);

  std::uint32_t node_;
  obs::PipelineObserver* observer_ = nullptr;
  bool obs_capture_ = true;
  std::atomic<fault::FaultInjector*> fault_{nullptr};
  fault::RetryPolicy retry_;
  /// Guards backoff_rng_ (tp_send may run concurrently from app threads in
  /// the forwarding style; the retry path is cold).
  std::mutex fault_mu_;
  stats::Rng backoff_rng_{0};
  std::atomic<bool> dead_{false};
};

class BufferedLis;

/// Coordinates FAOF gang flushes: "All processes are context-switched to
/// flush their local buffers" (§3.1.3).  In-process stand-in for the
/// broadcast a multicomputer IS would use.
class FlushCoordinator {
 public:
  void attach(BufferedLis* lis);
  void detach(BufferedLis* lis);
  /// Flushes every attached LIS.  Reentrancy-safe: a flush triggered while
  /// a gang flush is in progress folds into the ongoing one.
  void flush_all();
  std::uint64_t gang_flushes() const { return gang_flushes_.load(); }
  /// True while a gang flush runs; a flush_all() now folds into it.
  bool in_progress() const { return in_progress_.load(); }

 private:
  std::mutex mu_;
  std::vector<BufferedLis*> members_;
  std::atomic<bool> in_progress_{false};
  std::atomic<std::uint64_t> gang_flushes_{0};
};

/// PICL-style library LIS with a local trace buffer.
///
/// record() is lock-free on its fast path (DESIGN.md §18): one fetch_add on
/// the claim word takes a slot, the record is copied into it, and a release
/// increment of `published` hands it to whoever flushes.  mu_ is the slow
/// path.  A thread takes it when its claim reaches the policy's trigger, when
/// it overshoots a full or closed buffer, and on every record while an
/// observer is attached.  The mu_ holder closes the claim word, waits until
/// every claimed slot is published, and owns the buffer until it reopens the
/// word; stop() and a death in tp_send leave it closed.  So a flush still
/// blocks record() for its whole duration, as the PICL cost model requires.
class BufferedLis final : public Lis {
 public:
  /// `coordinator` may be null for purely local policies (FOF); required
  /// when `policy->global()` (FAOF).
  BufferedLis(std::uint32_t node, std::size_t buffer_capacity,
              std::unique_ptr<FlushPolicy> policy, DataLink& to_ism,
              FlushCoordinator* coordinator = nullptr);
  ~BufferedLis() override;

  void record(const trace::EventRecord& r) override;
  void flush() override;
  void stop() override;
  std::string_view kind() const override { return "buffered"; }
  LisStats stats() const override;

  std::string_view policy_name() const { return policy_->name(); }

 private:
  /// Set in the claim word while the mu_ holder owns the buffer.
  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 63;

  /// The slow path: `r` is the record to append, or null when the caller's
  /// claim reached the trigger and its record already sits in its slot.
  void record_locked(const trace::EventRecord* r);
  /// Closes the claim word and waits for every claimed slot to be
  /// published.  Returns the records in the buffer.
  std::size_t close_locked();
  /// Asks the policy for the trigger of the buffer about to fill.
  void arm_trigger_locked();
  /// Reopens the claim word over a buffer holding `size` records, unless
  /// the LIS is stopped or dead.
  void reopen_locked(std::size_t size);
  /// Ships the `n` buffered records.  Returns the records left buffered.
  std::size_t flush_locked(std::size_t n);

  const std::size_t capacity_;
  /// Slot storage, untouched until records are written into it (as a
  /// reserved vector's would be), so building an LIS faults in no pages.
  std::unique_ptr<std::byte[]> storage_;
  trace::EventRecord* const slots_;
  struct alignas(64) Claims {
    /// Slots claimed in the open buffer, or kClosed plus stray claims.
    std::atomic<std::uint64_t> word{0};
    /// Claimed slots whose record has been written.
    std::atomic<std::uint64_t> published{0};
    /// Occupancy at which the buffer flushes, in [1, capacity + 1]; set
    /// once per buffer, while the word is closed.
    std::atomic<std::uint64_t> trigger{0};
  } claims_;
  mutable std::mutex mu_;
  std::unique_ptr<FlushPolicy> policy_;
  DataLink& link_;
  FlushCoordinator* coordinator_;
  /// The ledger.  `recorded` here counts the records that have left the
  /// buffer; stats() adds the ones still in it.
  LisStats stats_;
  bool stopped_ = false;
  /// Lineage-key staging reused across flushes (guarded by mu_), so an
  /// observed flush does not re-allocate the key list every time.
  std::vector<obs::LineageKey> keys_scratch_;
  const std::string tl_buffer_;  ///< timeline series: buffer occupancy
};

/// Vista-style bufferless event forwarding.
class ForwardingLis final : public Lis {
 public:
  ForwardingLis(std::uint32_t node, DataLink& to_ism);

  void record(const trace::EventRecord& r) override;
  void flush() override {}
  void stop() override;
  std::string_view kind() const override { return "forwarding"; }
  LisStats stats() const override;

 private:
  DataLink& link_;
  std::atomic<bool> stopped_{false};
  /// Per-record ledger as relaxed counters on one cache line.  Every
  /// accepted record is a one-record batch that was forwarded or lost, so
  /// stats() derives `recorded` and `flushes` and a snapshot is conserved
  /// however it interleaves with record().
  struct alignas(64) Ledger {
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> lost_send{0};
    std::atomic<std::uint64_t> lost_dead{0};
  } ledger_;
};

/// Paradyn-style daemon LIS.
class DaemonLis final : public Lis {
 public:
  /// `pipe_capacity` bounds each per-process pipe; a full pipe blocks the
  /// writing application thread (the §3.2.3 bottleneck) when
  /// `block_on_full_pipe`, else drops.
  /// `probes` (optional) receives kEnable/DisableInstrumentation control
  /// messages — the daemon is the dynamic-instrumentation agent on its node.
  DaemonLis(std::uint32_t node, std::uint32_t n_processes,
            std::size_t pipe_capacity, std::uint64_t sampling_period_ns,
            DataLink& to_ism, ControlLink* control = nullptr,
            bool block_on_full_pipe = true,
            class ProbeRegistry* probes = nullptr);
  ~DaemonLis() override;

  void record(const trace::EventRecord& r) override;
  void flush() override;
  void stop() override;
  std::string_view kind() const override { return "daemon"; }
  LisStats stats() const override;

  void set_sampling_period_ns(std::uint64_t ns) {
    sampling_period_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t sampling_period_ns() const {
    return sampling_period_ns_.load(std::memory_order_relaxed);
  }
  /// Cumulative ns application threads spent blocked on full pipes.
  std::uint64_t app_block_time_ns() const;
  /// CPU-ish time the daemon thread spent actively collecting/forwarding.
  std::uint64_t daemon_busy_ns() const { return daemon_busy_ns_.load(); }

 private:
  void daemon_main();
  void drain_once();
  /// Injected crash: latches dead_, stops the loop, closes the pipes and
  /// accounts every orphaned record as a lis_dead loss.
  void die();

  std::vector<std::unique_ptr<Channel<trace::EventRecord>>> pipes_;
  DataLink& link_;
  ControlLink* control_;
  class ProbeRegistry* probes_;
  bool block_on_full_pipe_;
  std::atomic<std::uint64_t> sampling_period_ns_;
  std::atomic<bool> running_{false};
  std::thread daemon_;
  mutable std::mutex mu_;
  LisStats stats_;
  std::atomic<std::uint64_t> daemon_busy_ns_{0};
  const std::string tl_backlog_;  ///< timeline series: pipe occupancy
};

}  // namespace prism::core
