// The framed-link engine under every real TP backend (DESIGN.md §11).
//
// The paper's TP (§2.2.3) is one message format carried over
// interchangeable IPC flavors.  Here that is literal: `tp = socket` and
// `tp = shm` are the same engine instantiated over two byte paths.
//
// Topology, per data link: a *pump* thread drains the in-process ingress
// DataLink the LISes push into, turns each DataBatch into a wire frame (the
// untrusted 24-byte FrameHeader of io_loop.hpp + raw EventRecords) and hands
// it to the byte path.  One shared *reader* thread services every link's
// byte path, validates each header before allocating anything from it,
// stages the payload in BatchArena storage, and delivers the batch into the
// link's bounded egress DataLink, which the ISM consumes via
// TransferProtocol::receive_link().  Control messages never ride the wire:
// the control plane is in-process (§2.2.3 allows direct ISM<->LIS control),
// so the pump bypasses them straight into the egress buffer.  Backpressure
// is preserved end to end: a full egress blocks the reader, the byte path
// fills, the pump parks, the ingress link fills, and the LIS blocks — the
// §3.2.3 bottleneck chain over real IPC.
//
// What the engine owns, once: the pump loop, the send-attempt fault/retry
// loop (kSendFail retried per RetryPolicy, stalls applied), corrupt-magic
// and partial-frame injection, every link counter, the in-transit ledger
// (`unacked_`: record identities of frames on the byte path, pruned against
// the reader's delivered count and reconciled as lost when the stream ends)
// and the one loss function, plus the reader's validate/stage/deliver/finish
// steps and the transport lifecycle.  A byte policy (`Bytes`: Options,
// fault sites, backoff salt, names; check, open, read_loop) owns only how
// bytes move: its Writer (close, poison, make_room, write_torn, write_raw,
// and publish — or, when kCoalesces, stage/pending/over_budget/flush) and
// its Reader (read -> ReadStatus, hang_up).
//
// Accounting rule ("attribute, then publish"): every destroyed record is
// handed to the observer's lineage *before* records_lost() moves, with a
// release increment paired with an acquire load, so a caller that watches
// the counter always finds the lineage already settled — and never races a
// pump still inside LineageTracer::lose.  This keeps
// `admitted == completed + lost + in_flight` exact under chaos.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/clock.hpp"
#include "core/io_loop.hpp"
#include "core/transfer_protocol.hpp"
#include "fault/fault.hpp"
#include "obs/live/flight.hpp"
#include "obs/pipeline.hpp"
#include "obs/prof/prof.hpp"

namespace prism::core {

/// Outcome of one reader-side read of `len` bytes from a byte path.
enum class ReadStatus : std::uint8_t {
  kDone,       ///< all `len` bytes were read
  kAgain,      ///< not available yet; come back when the path is readable
  kEof,        ///< clean end of stream at a frame boundary
  kTruncated,  ///< the stream ended mid-frame or was poisoned
};

/// Where a frame staged in a coalescing byte path ended up after a write.
enum class Landed : std::uint8_t {
  kWhole,  ///< entirely on the wire
  kCut,    ///< straddles the point where the write broke off
  kNever,  ///< no byte of it left
};

/// A frame handed to the byte path: what the loss ledger needs to settle it.
struct WireFrame {
  /// Record identities (empty when no observer was attached).
  std::vector<obs::LineageKey> keys;
  std::uint64_t records = 0;
  /// Already attributed lost at send time (injected corrupt-magic frames
  /// ship whole but stay out of the in-transit ledger).
  bool accounted = false;
};

/// The counters of one framed link.  Relaxed increments; records_lost is
/// the release-published one (see the accounting rule above).
struct LinkCounters {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> frames_corrupt{0};
  std::atomic<std::uint64_t> frames_aborted{0};
  std::atomic<std::uint64_t> frames_undelivered{0};
  std::atomic<std::uint64_t> send_failures{0};
  std::atomic<std::uint64_t> records_lost{0};
  std::atomic<std::uint64_t> full_waits{0};
};

template <class Bytes>
class FramedTransport;

/// The producer side of one framed link: drains an ingress DataLink, frames
/// batches onto the byte path, and owns the writer half of the loss ledger.
/// Constructed only by FramedTransport.
template <class Bytes>
class FramedLink {
 public:
  ~FramedLink();
  FramedLink(const FramedLink&) = delete;
  FramedLink& operator=(const FramedLink&) = delete;

  /// Flushes anything staged and closes the writer; the reader drains what
  /// is on the byte path and then sees EOF.  Idempotent.  The pump keeps
  /// draining the ingress link afterwards, attributing each further batch
  /// as a tp_send_failed loss.
  void close_writer();

  /// Test hook: flushes staged frames, then writes raw bytes onto the byte
  /// path, bypassing framing — lets corruption tests place arbitrary
  /// garbage in front of the reader.  False when the bytes did not land.
  bool inject_raw(const void* data, std::size_t len);

  /// Attaches the fault plane (may be null).  Bytes::kSendSite is consulted
  /// once per send attempt (kSendFail retried per `retry`, stalls applied);
  /// Bytes::kFrameSite once per frame (kFrameCorrupt flips the magic,
  /// kPartialFrame tears the frame and kills the stream).  The lane node is
  /// the batch's source node, so ledgers compare across transports.
  void set_fault(fault::FaultInjector* f, fault::RetryPolicy retry = {});

  /// Attaches the observability sink (may be null).  Every record this
  /// link destroys is attributed here — the link is the only component
  /// that still knows a destroyed batch's identity.  Call before traffic.
  void set_observer(obs::PipelineObserver* o) {
    observer_.store(o, std::memory_order_release);
  }

  /// Frames fully handed to the byte path (excludes destroyed frames).
  std::uint64_t frames_sent() const { return n_.frames_sent.load(); }
  std::uint64_t bytes_sent() const { return n_.bytes.load(); }
  /// write(2) calls on an fd stream — with coalescing this is <=
  /// frames_sent.  Ring publishes are not syscalls: always 0 on shm.
  std::uint64_t writes() const { return n_.writes.load(); }
  /// Frames the reader parsed and delivered into the egress link.
  std::uint64_t frames_delivered() const { return n_.delivered.load(); }
  /// Frames the reader rejected (bad magic, oversized count, truncation).
  std::uint64_t frames_corrupt() const { return n_.frames_corrupt.load(); }
  /// Frames the writer destroyed (torn mid-write, injected corruption).
  std::uint64_t frames_aborted() const { return n_.frames_aborted.load(); }
  /// Frames sent but never delivered (stranded on the byte path when the
  /// stream died); attributed lost at teardown.
  std::uint64_t frames_undelivered() const {
    return n_.frames_undelivered.load();
  }
  /// Failed send attempts, injected and organic.
  std::uint64_t send_failures() const { return n_.send_failures.load(); }
  /// Records this link destroyed; their lineage is settled before this
  /// moves.
  std::uint64_t records_lost() const {
    return n_.records_lost.load(std::memory_order_acquire);
  }
  /// Producer parks on a full shm ring (backpressure evidence).  An fd
  /// stream parks inside poll(2) instead: always 0 there.
  std::uint64_t ring_full_waits() const { return n_.full_waits.load(); }
  /// Latched once either end declared the byte stream desynchronized.
  bool stream_corrupt() const { return stream_corrupt_.load(); }

 private:
  friend class FramedTransport<Bytes>;
  using Writer = typename Bytes::Writer;

  FramedLink(std::size_t index, DataLink& ingress, DataLink& egress,
             Writer writer)
      : index_(index),
        ingress_(ingress),
        egress_(egress),
        writer_(std::move(writer)) {}
  void start() {
    pump_ = std::thread([this] { pump_main(); });
  }

  void pump_main();
  void handle_batch(DataBatch&& batch);
  /// Writes what the coalescing byte path has staged and settles each
  /// staged frame (write_mu_ held).  No-op on a non-coalescing path.
  void flush_locked();
  void prune_acked_locked();
  void close_writer_locked() {
    if (!writer_closed_.exchange(true)) writer_.close();
  }
  /// Mid-frame failure: latch corruption, poison and close (write_mu_ held).
  void abort_stream_locked();
  obs::PipelineObserver* observer() const {
    return observer_.load(std::memory_order_acquire);
  }
  /// The records' identities when an observer is attached, else empty.
  std::vector<obs::LineageKey> keys_of(const DataBatch& b) const;
  /// The one loss function: attributes `keys` to `site`, then publishes
  /// `count` in records_lost().
  void lose(const std::vector<obs::LineageKey>& keys, std::uint64_t count,
            obs::LossSite site);
  /// A frame the writer destroyed: one send failure (and one abort when it
  /// was torn or corrupted, site kFrameCorrupt), then its records lost.
  void drop(const std::vector<obs::LineageKey>& keys, std::uint64_t count,
            obs::LossSite site);
  /// A frame now on the byte path: enters the in-transit ledger.
  void sent_locked(WireFrame&& f) {
    n_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    unacked_.emplace_back(std::move(f));
  }
  /// Stream over (EOF, corruption, or abandoned teardown): attribute every
  /// sent frame the reader never confirmed.  The reader hangs up its end
  /// first, so a concurrent send fails cleanly instead of racing this.
  void reconcile_undelivered();

  const std::size_t index_;
  DataLink& ingress_;
  DataLink& egress_;

  std::mutex write_mu_;
  Writer writer_;                           // guarded by write_mu_
  std::deque<WireFrame> unacked_;           // guarded by write_mu_
  std::uint64_t acked_ = 0;                 // guarded by write_mu_
  fault::FaultInjector* fault_ = nullptr;   // guarded by write_mu_
  fault::RetryPolicy retry_;                // guarded by write_mu_
  stats::Rng backoff_rng_{0};               // guarded by write_mu_
  /// Atomic: read by both the pump and the reader thread.
  std::atomic<obs::PipelineObserver*> observer_{nullptr};

  std::atomic<bool> writer_closed_{false};
  std::atomic<bool> stream_corrupt_{false};
  LinkCounters n_;
  std::thread pump_;
};

/// The data plane of one TransferProtocol over one byte policy: owns the
/// egress links, the per-link pumps, and the single reader thread that
/// services every link's byte path.
template <class Bytes>
class FramedTransport final : public WireBackend {
 public:
  using Options = typename Bytes::Options;

  /// Builds one byte path per data link of `tp` and starts the reader +
  /// pumps.  `tp` must outlive this object.  Throws std::invalid_argument
  /// on unusable options (a zero max_frame_records, or whatever the byte
  /// policy rejects).
  FramedTransport(TransferProtocol& tp, Options opts);
  ~FramedTransport() override;

  std::size_t link_count() const { return links_.size(); }
  FramedLink<Bytes>& link(std::size_t index) { return *links_.at(index); }
  DataLink& egress(std::size_t index) override { return *egress_.at(index); }

  void set_fault(fault::FaultInjector* f,
                 fault::RetryPolicy retry = {}) override;
  void set_observer(obs::PipelineObserver* o) override;
  void quiesce() override;
  std::uint64_t records_lost_total() const override;

 private:
  /// Reader-side reassembly state of one link.
  struct Rx {
    Rx(typename Bytes::Reader r, std::size_t i) : bytes(std::move(r)), link(i) {}
    typename Bytes::Reader bytes;
    std::size_t link;
    bool done = false;
    bool in_payload = false;
    FrameHeader hdr;
    DataBatch batch;
  };

  /// Reads, validates, stages and delivers whatever the link's byte path
  /// holds; returns true when progress was made.
  bool service(Rx& rx);
  void deliver(Rx& rx);
  void finish(Rx& rx, bool corrupt);

  Options opts_;
  std::vector<std::unique_ptr<DataLink>> egress_;
  std::vector<Rx> rxs_;  // reader thread only (after construction)
  // After rxs_: links are destroyed first, while a shared byte path the
  // reader side owns (an shm segment) is still mapped.
  std::vector<std::unique_ptr<FramedLink<Bytes>>> links_;
  std::thread reader_;
};

// ------------------------------------------------------------------ FramedLink

template <class Bytes>
FramedLink<Bytes>::~FramedLink() {
  // The owner closes the ingress link before destroying us, which is what
  // lets the pump drain and exit.
  if (pump_.joinable()) pump_.join();
  close_writer();
}

template <class Bytes>
void FramedLink<Bytes>::set_fault(fault::FaultInjector* f,
                                  fault::RetryPolicy retry) {
  std::lock_guard lk(write_mu_);
  fault_ = f;
  retry_ = retry;
  backoff_rng_ = stats::Rng(
      stats::Rng::hash_seed(f ? f->seed() : 0, Bytes::kBackoffSalt + index_));
}

template <class Bytes>
std::vector<obs::LineageKey> FramedLink<Bytes>::keys_of(
    const DataBatch& b) const {
  std::vector<obs::LineageKey> keys;
  if (observer() == nullptr) return keys;
  keys.reserve(b.records.size());
  for (const auto& r : b.records)
    keys.push_back(obs::lineage_key(r.node, r.process, r.seq));
  return keys;
}

template <class Bytes>
void FramedLink<Bytes>::lose(const std::vector<obs::LineageKey>& keys,
                             std::uint64_t count, obs::LossSite site) {
  if (auto* o = observer()) {
    const auto t = static_cast<double>(now_ns());
    for (const auto k : keys) o->lineage.lose(k, site, t);
  }
  PRISM_OBS_FLIGHT("wire_loss", obs::to_string(site), index_, count);
  // Publish last: whoever observes the new total finds the lineage settled.
  n_.records_lost.fetch_add(count, std::memory_order_release);
}

template <class Bytes>
void FramedLink<Bytes>::drop(const std::vector<obs::LineageKey>& keys,
                             std::uint64_t count, obs::LossSite site) {
  n_.send_failures.fetch_add(1, std::memory_order_relaxed);
  if (site == obs::LossSite::kFrameCorrupt)
    n_.frames_aborted.fetch_add(1, std::memory_order_relaxed);
  lose(keys, count, site);
}

template <class Bytes>
void FramedLink<Bytes>::abort_stream_locked() {
  if (!stream_corrupt_.exchange(true, std::memory_order_relaxed))
    PRISM_OBS_FLIGHT("stream_corrupt", Bytes::kStreamName, index_, 0);
  writer_.poison();
  close_writer_locked();
}

template <class Bytes>
void FramedLink<Bytes>::prune_acked_locked() {
  const std::uint64_t d = n_.delivered.load(std::memory_order_acquire);
  while (acked_ < d && !unacked_.empty()) {
    unacked_.pop_front();
    ++acked_;
  }
}

template <class Bytes>
void FramedLink<Bytes>::flush_locked() {
  if constexpr (Bytes::kCoalesces) {
    prune_acked_locked();
    if (!writer_.pending()) return;
    const bool dead = writer_closed_.load() || stream_corrupt_.load();
    // Frames wholly before a cut are on the wire (the unacked ledger
    // decides their fate); a frame straddling the cut is destroyed; frames
    // after it never left.
    const bool torn =
        writer_.flush(dead, n_, [this](WireFrame& f, Landed at) {
          if (f.accounted) return;
          if (at == Landed::kWhole)
            sent_locked(std::move(f));
          else
            drop(f.keys, f.records,
                 at == Landed::kCut ? obs::LossSite::kFrameCorrupt
                                    : obs::LossSite::kTpSendFailed);
        });
    // Every byte after a mid-stream cut would be misparsed: fail hard.
    if (torn) abort_stream_locked();
  }
}

template <class Bytes>
void FramedLink<Bytes>::handle_batch(DataBatch&& batch) {
  std::lock_guard lk(write_mu_);
  prune_acked_locked();
  const std::uint64_t count = batch.records.size();
  if (writer_closed_.load() || stream_corrupt_.load()) {
    drop(keys_of(batch), count, obs::LossSite::kTpSendFailed);
    return;
  }

  // Send-attempt faults: injected transient failures happen before any byte
  // moves, so they are cleanly retryable.
  std::uint32_t attempt = 0;
  while (fault_) {
    const auto f = fault_->consult(Bytes::kSendSite, batch.source_node);
    if (f.kind == fault::FaultKind::kStall ||
        f.kind == fault::FaultKind::kSlowConsumer)
      fault::sleep_ns(f.stall_ns);
    if (f.kind != fault::FaultKind::kSendFail) break;
    n_.send_failures.fetch_add(1, std::memory_order_relaxed);
    if (++attempt >= retry_.max_attempts) {
      lose(keys_of(batch), count, obs::LossSite::kRetryExhausted);
      return;
    }
    fault::sleep_ns(retry_.backoff_ns(attempt, backoff_rng_));
  }

  FrameHeader hdr;
  hdr.source_node = batch.source_node;
  hdr.t_sent_ns = batch.t_sent_ns;
  hdr.record_count = count;
  if (fault_) {
    const auto f = fault_->consult(Bytes::kFrameSite, batch.source_node);
    if (f.kind == fault::FaultKind::kPartialFrame) {
      // The writer dies mid-frame: whatever was staged before this frame
      // goes out whole, then part of this frame lands and the stream is
      // desynchronized.
      flush_locked();
      if (!writer_closed_.load()) writer_.write_torn(hdr, batch, n_);
      drop(keys_of(batch), count, obs::LossSite::kFrameCorrupt);
      abort_stream_locked();
      return;
    }
    if (f.kind == fault::FaultKind::kFrameCorrupt) hdr.magic ^= 0xFFu;
  }

  if (!writer_.make_room(frame_wire_size(batch), n_, index_)) {
    // Can never fit, or the consumer vanished while we waited: the frame
    // never reached the byte path, so the stream itself stays sound — a
    // clean per-frame send failure, like EPIPE at a frame boundary.
    drop(keys_of(batch), count, obs::LossSite::kTpSendFailed);
    return;
  }

  WireFrame frame{keys_of(batch), count, hdr.magic != kFrameMagic};
  // A flipped-magic frame ships whole and the reader must detect it; the
  // records are gone either way.  Accounted here, where their identity is
  // still known, and kept out of the unacked ledger.
  if (frame.accounted)
    drop(frame.keys, count, obs::LossSite::kFrameCorrupt);
  if constexpr (Bytes::kCoalesces) {
    writer_.stage(hdr, batch, std::move(frame));
    if (writer_.over_budget()) flush_locked();
  } else {
    // Ledger entry first (all under write_mu_): the reader can never
    // deliver a frame the ledger has not seen.
    if (!frame.accounted) sent_locked(std::move(frame));
    writer_.publish(hdr, batch, n_);
  }
}

template <class Bytes>
void FramedLink<Bytes>::pump_main() {
  // Busy/idle split for the live tier's obs report: blocking on an empty
  // ingress is idle; framing, writing and parking on a full byte path (which
  // burns the pump's budget) are busy.
  obs::prof::WorkerClock clock(Bytes::kPumpClock);
  for (;;) {
    // Coalescing discipline: only block on an empty ingress once the staged
    // bytes are flushed, so a queue that momentarily runs dry never strands
    // serialized frames.  A non-coalescing path never has anything staged.
    bool pending = false;
    if constexpr (Bytes::kCoalesces) {
      std::lock_guard lk(write_mu_);
      pending = writer_.pending();
    }
    const std::uint64_t t_park = obs::prof::prof_now_ns();
    std::optional<Message> msg = pending ? ingress_.try_pop() : ingress_.pop();
    if (!pending)  // only the blocking pop counts as idle
      clock.add_idle_ns(obs::prof::prof_now_ns() - t_park);
    if (!msg) {
      if (!pending) break;  // ingress closed and drained
      std::lock_guard lk(write_mu_);
      flush_locked();
      continue;
    }
    if (auto* batch = std::get_if<DataBatch>(&*msg)) {
      handle_batch(std::move(*batch));
      continue;
    }
    // Control bypass, after flushing the data frames that precede it.  FIFO
    // with the wire's data frames is not required for control.
    if constexpr (Bytes::kCoalesces) {
      std::lock_guard lk(write_mu_);
      flush_locked();
    }
    egress_.push(std::move(*msg));
  }
  close_writer();
}

template <class Bytes>
void FramedLink<Bytes>::close_writer() {
  std::lock_guard lk(write_mu_);
  flush_locked();
  close_writer_locked();
}

template <class Bytes>
bool FramedLink<Bytes>::inject_raw(const void* data, std::size_t len) {
  std::lock_guard lk(write_mu_);
  if (writer_closed_.load()) return false;
  flush_locked();
  if (writer_closed_.load()) return false;
  return writer_.write_raw(data, len, n_, index_);
}

template <class Bytes>
void FramedLink<Bytes>::reconcile_undelivered() {
  std::lock_guard lk(write_mu_);
  prune_acked_locked();
  for (const auto& f : unacked_) {
    n_.frames_undelivered.fetch_add(1, std::memory_order_relaxed);
    lose(f.keys, f.records, obs::LossSite::kFrameCorrupt);
  }
  unacked_.clear();
}

// ------------------------------------------------------------- FramedTransport

template <class Bytes>
FramedTransport<Bytes>::FramedTransport(TransferProtocol& tp, Options opts)
    : opts_(opts) {
  if (opts_.max_frame_records == 0)
    throw std::invalid_argument("FramedTransport: max_frame_records 0");
  Bytes::check(opts_);
  const std::size_t n = tp.data_link_count();
  egress_.reserve(n);
  rxs_.reserve(n);
  links_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    egress_.push_back(std::make_unique<DataLink>(tp.data_link(i).capacity()));
    auto [writer, reader] = Bytes::open(opts_);
    rxs_.emplace_back(std::move(reader), i);
    links_.emplace_back(new FramedLink<Bytes>(i, tp.data_link(i), *egress_[i],
                                              std::move(writer)));
  }
  reader_ = std::thread([this] {
    Bytes::read_loop(
        rxs_, [this](Rx& rx) { return service(rx); },
        [this](Rx& rx) { finish(rx, /*corrupt=*/true); });
  });
  for (auto& l : links_) l->start();
}

template <class Bytes>
FramedTransport<Bytes>::~FramedTransport() {
  // Orderly even when the owner never ran a shutdown: close the ingress
  // links so the pumps drain and exit, and the egress links so a reader
  // blocked on a full buffer unblocks.  In the normal lifecycle
  // (Ism::stop -> close_data_links -> pump EOF -> reader finish) all of
  // this already happened and the closes are no-ops.
  for (auto& l : links_) l->ingress_.close();
  for (auto& e : egress_) e->close();
  links_.clear();  // joins the pumps, closing every writer -> reader EOF
  if (reader_.joinable()) reader_.join();
}

template <class Bytes>
void FramedTransport<Bytes>::quiesce() {
  // Pumps exit once their ingress is closed and drained, closing their
  // writers; the reader then sees EOF (or the streams were already corrupt)
  // and retires every byte path, which freezes the undelivered ledgers.
  for (auto& l : links_)
    if (l->pump_.joinable()) l->pump_.join();
  if (reader_.joinable()) reader_.join();
}

template <class Bytes>
void FramedTransport<Bytes>::set_fault(fault::FaultInjector* f,
                                       fault::RetryPolicy retry) {
  for (auto& l : links_) l->set_fault(f, retry);
}

template <class Bytes>
void FramedTransport<Bytes>::set_observer(obs::PipelineObserver* o) {
  for (auto& l : links_) l->set_observer(o);
}

template <class Bytes>
std::uint64_t FramedTransport<Bytes>::records_lost_total() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l->records_lost();
  return total;
}

template <class Bytes>
bool FramedTransport<Bytes>::service(Rx& rx) {
  bool progress = false;
  while (!rx.done) {
    void* const dst = rx.in_payload ? static_cast<void*>(rx.batch.records.data())
                                    : static_cast<void*>(&rx.hdr);
    const std::size_t len =
        rx.in_payload ? rx.batch.records.size() * sizeof(trace::EventRecord)
                      : sizeof rx.hdr;
    const ReadStatus s = rx.bytes.read(dst, len, rx.in_payload);
    if (s == ReadStatus::kAgain) break;
    progress = true;
    if (s != ReadStatus::kDone) {
      finish(rx, /*corrupt=*/s == ReadStatus::kTruncated);
      break;
    }
    if (rx.in_payload) {
      deliver(rx);
      continue;
    }
    if (rx.hdr.magic != kFrameMagic ||
        rx.hdr.record_count > opts_.max_frame_records) {
      // The header is untrusted input: a bad magic or an insane record
      // count desynchronizes the stream — stop before allocating anything
      // from it.
      finish(rx, /*corrupt=*/true);
      break;
    }
    rx.batch = DataBatch{};
    rx.batch.source_node = rx.hdr.source_node;
    rx.batch.t_sent_ns = rx.hdr.t_sent_ns;
    // Staging storage from the shared arena: the ISM returns it after
    // consuming the batch, so steady-state receive allocates nothing.
    rx.batch.records = BatchArena::instance().acquire(rx.hdr.record_count);
    rx.in_payload = true;
  }
  return progress;
}

template <class Bytes>
void FramedTransport<Bytes>::deliver(Rx& rx) {
  FramedLink<Bytes>& l = *links_[rx.link];
  l.n_.delivered.fetch_add(1, std::memory_order_release);
  const std::uint64_t count = rx.batch.records.size();
  const std::vector<obs::LineageKey> keys = l.keys_of(rx.batch);
  DataBatch b = std::move(rx.batch);
  rx.batch = DataBatch{};
  rx.in_payload = false;
  if (!egress_[rx.link]->push(Message(std::move(b)))) {
    // Egress closed under us (abandoned teardown): the frame crossed the
    // byte path but the ISM will never see it.
    l.lose(keys, count, obs::LossSite::kIsmQueue);
  }
}

template <class Bytes>
void FramedTransport<Bytes>::finish(Rx& rx, bool corrupt) {
  FramedLink<Bytes>& l = *links_[rx.link];
  if (corrupt) {
    l.n_.frames_corrupt.fetch_add(1, std::memory_order_relaxed);
    l.stream_corrupt_.store(true, std::memory_order_relaxed);
  }
  // Hang up first: a concurrent send then fails cleanly instead of racing
  // the in-transit ledger reconciled below, and a writer parked on a full
  // byte path fails instead of waiting forever.
  rx.bytes.hang_up();
  if (rx.in_payload) {
    BatchArena::instance().release(std::move(rx.batch.records));
    rx.batch = DataBatch{};
    rx.in_payload = false;
  }
  rx.done = true;
  l.reconcile_undelivered();
  egress_[rx.link]->close();
}

}  // namespace prism::core
