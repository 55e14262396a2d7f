// The Transfer Protocol (TP) component of the generic IS model (§2.2.3).
//
// "Instrumentation data are transferred from the LIS to the ISM and further
// to various analysis and visualization tools ... Data transfer to the tools
// is typically accompanied by an exchange of control signals between the ISM
// and a tool ... Additionally, control messages may need to be passed between
// the ISM and concurrent application processes (directly or via the LIS)."
//
// The TP here is a consistent message format (data batches + control
// messages) over bounded blocking links.  Every flavor provides FIFO,
// finite-capacity, blocking delivery, which is the behavior every model in
// the paper depends on; the real backends (socket, shm) carry the data
// plane over an actual byte path underneath (see TpFlavor).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/channel.hpp"
#include "fault/fault.hpp"
#include "obs/timeline.hpp"
#include "trace/record.hpp"

namespace prism::obs {
struct PipelineObserver;
}

namespace prism::core {

/// A batch of instrumentation data in flight from a LIS to the ISM.
///
/// Storage-recycling contract: producers draw `records` capacity from
/// core::BatchArena (acquire/acquire_reserved) and the terminal consumer —
/// the ISM, after it has copied the records out — hands the vector back
/// with BatchArena::release.  Once the pool is warm, the live tier's
/// per-batch path performs no heap allocation; a batch destroyed on an
/// error path simply frees its storage, which is safe but unpooled.
struct DataBatch {
  std::uint32_t source_node = 0;
  /// Physical time the batch entered the TP (ns), for latency accounting.
  std::uint64_t t_sent_ns = 0;
  std::vector<trace::EventRecord> records;
};

/// Control-plane message kinds.
enum class ControlKind : std::uint8_t {
  kStart,                 ///< begin data collection
  kStop,                  ///< stop data collection
  kFlushAll,              ///< FAOF broadcast: flush local buffers now
  kSetSamplingPeriod,     ///< value = new period (ns)
  kEnableInstrumentation, ///< value = metric/probe id
  kDisableInstrumentation,///< value = metric/probe id
  kShutdown,              ///< tear down the receiver
};
inline constexpr std::size_t kControlKindCount = 7;

std::string_view to_string(ControlKind k);

/// Control kinds whose loss breaks the IS lifecycle rather than merely
/// degrading a policy: kShutdown leaks the receiver's threads, a dropped
/// kFlushAll strands FAOF buffers, a dropped kStop keeps collection running.
/// broadcast() delivers these with bounded blocking instead of try_push.
bool lifecycle_critical(ControlKind k);

struct ControlMessage {
  ControlKind kind = ControlKind::kStart;
  std::uint32_t target_node = 0;
  double value = 0.0;
};

using Message = std::variant<DataBatch, ControlMessage>;

/// One FIFO link of the transfer protocol.
using DataLink = Channel<Message>;
using ControlLink = Channel<ControlMessage>;

/// IPC flavors of Fig. 3 ("RPC / Sockets / Pipes").  kPipe is the
/// in-process link: a bounded Channel<Message> between threads of one
/// process, with no byte stream under it.  kSocket and kShm are real
/// backends built on one framed-link engine (framed_link.hpp):
/// enable_socket_backend() routes the data plane over OS-level stream
/// sockets (socket_link.hpp), enable_shm_backend() over lock-free SPSC
/// rings in shared-memory segments (shm_link.hpp).
enum class TpFlavor : std::uint8_t { kPipe, kSocket, kShm };

std::string_view to_string(TpFlavor f);

/// Address family for the real socket backend.
enum class SocketDomain : std::uint8_t {
  kUnix,         ///< AF_UNIX stream pair (default; no network stack)
  kTcpLoopback,  ///< TCP over 127.0.0.1 (exercises the full inet path)
};

std::string_view to_string(SocketDomain d);

/// Tuning for the socket transport.
struct SocketOptions {
  SocketDomain domain = SocketDomain::kUnix;
  /// Upper bound on records per frame accepted from the wire (the header is
  /// untrusted input; checked before any allocation).
  std::uint64_t max_frame_records = 1ull << 20;
  /// Write-side batching: a link's pump coalesces queued DataBatch frames
  /// into one write syscall until the serialized bytes reach this budget.
  std::size_t coalesce_byte_budget = 64 * 1024;
};

/// Tuning for the shared-memory transport.
struct ShmOptions {
  /// Bytes of ring data area per data link.  Must be a nonzero power of two
  /// (the ring maps positions with a mask) and large enough for one
  /// single-record frame; link setup rejects anything else.
  std::size_t ring_capacity = 1 << 20;
  /// Upper bound on records per frame accepted from the ring (the header is
  /// untrusted shared state; checked before any allocation).
  std::uint64_t max_frame_records = 1ull << 20;
};

template <class Bytes>
class FramedLink;  // framed_link.hpp
template <class Bytes>
class FramedTransport;
struct FdStreamPath;  // socket_link.hpp
struct ShmRingPath;   // shm_link.hpp
using SocketLink = FramedLink<FdStreamPath>;
using SocketTransport = FramedTransport<FdStreamPath>;
using ShmLink = FramedLink<ShmRingPath>;
using ShmTransport = FramedTransport<ShmRingPath>;

/// The enabled real data plane of a TransferProtocol, whichever byte path
/// carries it (FramedTransport, framed_link.hpp).
class WireBackend {
 public:
  WireBackend() = default;
  WireBackend(const WireBackend&) = delete;
  WireBackend& operator=(const WireBackend&) = delete;
  virtual ~WireBackend() = default;
  /// The bounded buffer the ISM consumes for data link `index`.
  virtual DataLink& egress(std::size_t index) = 0;
  virtual void set_fault(fault::FaultInjector* f,
                         fault::RetryPolicy retry) = 0;
  virtual void set_observer(obs::PipelineObserver* o) = 0;
  /// Blocks until every pump has drained its (closed) ingress link and the
  /// reader has retired every byte path — after this, all wire-side loss
  /// accounting is final.  Requires the ingress links closed first, and a
  /// consumer still draining the egress links while healthy streams flush
  /// (the ISM shutdown path provides both).  Idempotent.
  virtual void quiesce() = 0;
  /// Records destroyed and attributed on the wire, all links.
  virtual std::uint64_t records_lost_total() const = 0;
};

/// Wiring for one integrated environment: data links from each LIS toward
/// the ISM and a control link back to each LIS.  The number of data links is
/// an ISM input-buffer configuration decision (SISO shares one link; MISO
/// uses one per node) — see IsmConfig.
class TransferProtocol {
 public:
  TransferProtocol(TpFlavor flavor, std::size_t nodes,
                   std::size_t data_links, std::size_t link_capacity);
  ~TransferProtocol();

  TpFlavor flavor() const { return flavor_; }
  std::size_t nodes() const { return controls_.size(); }
  std::size_t data_link_count() const { return datas_.size(); }

  /// Data link that node `node` should send on (SISO maps all nodes to
  /// link 0; MISO maps node i to link i).
  DataLink& data_link_for(std::uint32_t node);
  DataLink& data_link(std::size_t index) { return *datas_.at(index); }

  ControlLink& control_link(std::uint32_t node);

  /// Makes the kSocket flavor real: each data link grows a pump that
  /// serializes its batches over an OS-level stream socket, and a shared
  /// poll()-driven reader delivers the frames into per-link egress buffers.
  /// Senders keep pushing into data_link_for() unchanged; the ISM must
  /// consume receive_link() instead of data_link().  The control plane
  /// stays in-process (§2.2.3 allows direct ISM<->LIS control).  Call once,
  /// before any traffic; requires flavor() == kSocket.
  void enable_socket_backend(const SocketOptions& opts = {});
  bool socket_backend_enabled() const {
    return wire_ && flavor_ == TpFlavor::kSocket;
  }

  /// Makes the kShm flavor real: each data link grows a pump that frames its
  /// batches into a lock-free SPSC ring in a shared-memory segment, and a
  /// shared polling reader delivers the frames into per-link egress buffers.
  /// Same consumption contract as the socket backend: the ISM must consume
  /// receive_link().  Call once, before any traffic; requires
  /// flavor() == kShm.  Throws std::invalid_argument on a ring capacity that
  /// is zero, not a power of two, or too small for one record frame.
  void enable_shm_backend(const ShmOptions& opts = {});
  bool shm_backend_enabled() const {
    return wire_ && flavor_ == TpFlavor::kShm;
  }

  /// Link the ISM consumes: the enabled backend's egress buffer (socket or
  /// shm), else the data link itself.
  DataLink& receive_link(std::size_t index);

  /// The receive loop of every ISM level (root Ism and AggregatorIsm):
  /// hands each message of every receive_link() to `on_message(Message&)`
  /// until all of them are closed and empty.  One link (SISO) blocks on it;
  /// several (MISO) are polled round-robin, sleeping 100 us per pass once a
  /// run of 64 passes found nothing.
  template <class OnMessage>
  void drain_receive_links(OnMessage&& on_message) {
    const std::size_t n_links = data_link_count();
    if (n_links == 1) {
      DataLink& link = receive_link(0);
      while (auto msg = link.pop()) on_message(*msg);
      return;
    }
    std::size_t idle_spins = 0;
    for (;;) {
      bool any = false;
      bool all_done = true;
      for (std::size_t i = 0; i < n_links; ++i) {
        DataLink& link = receive_link(i);
        if (!link.closed() || link.size() > 0) all_done = false;
        if (auto msg = link.try_pop()) {
          any = true;
          on_message(*msg);
        }
      }
      if (all_done) return;
      if (any) {
        idle_spins = 0;
      } else if (++idle_spins > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// Socket-backend introspection (null / throws when not enabled).
  SocketTransport* socket_transport();
  SocketLink& socket_link(std::size_t index);

  /// Shm-backend introspection (null / throws when not enabled).
  ShmTransport* shm_transport();
  ShmLink& shm_link(std::size_t index);

  /// Enables the real backend flavor() names (kSocket or kShm) with its
  /// options; a no-op for the in-process kPipe.
  void enable_backend(const SocketOptions& socket, const ShmOptions& shm);
  /// True once a real data plane (socket or shm) carries the data links.
  bool backend_enabled() const { return wire_ != nullptr; }

  /// Records destroyed and attributed on the enabled backend's wire (0
  /// without one).
  std::uint64_t wire_records_lost() const {
    return wire_ ? wire_->records_lost_total() : 0;
  }

  /// Broadcasts a control message to every node's control link.
  /// Lifecycle-critical kinds (see lifecycle_critical()) block for up to the
  /// control send timeout per node — and retry injected failures per the
  /// attached RetryPolicy — before a drop is declared; other kinds stay
  /// best-effort try_push.  Every drop is attributed to its ControlKind in
  /// control_dropped().
  void broadcast(const ControlMessage& m);

  /// Drops of control messages, attributed per kind (satellite of the fault
  /// plane: a dropped kShutdown is a bug, a dropped kSetSamplingPeriod is a
  /// policy hiccup — they must be distinguishable).
  std::uint64_t control_dropped(ControlKind k) const {
    return control_dropped_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t control_dropped_total() const;

  /// Bounded blocking budget per node for lifecycle-critical broadcasts.
  void set_control_send_timeout_ns(std::uint64_t ns) {
    control_send_timeout_ns_ = ns;
  }

  /// Attaches the fault plane (may be null to detach).  kTpControl is
  /// consulted once per node per broadcast; injected send failures on
  /// critical kinds are retried per `retry`.  Forwarded to the enabled
  /// backend (kSocketSend / kSocketFrame or kShmPush / kShmFrame sites).
  void set_fault(fault::FaultInjector* f, fault::RetryPolicy retry = {});

  /// Attaches the observability sink (may be null).  Only the real
  /// backends consume it (wire losses need attribution); the in-process
  /// links never destroy records.
  void set_observer(obs::PipelineObserver* o);

  /// Samples every data link's queue depth into `tl` at time `t` (series
  /// "tp.link<i>.depth", on-change).  No-op when `tl` is null.
  void sample_depths(obs::Timeline* tl, double t) const;

  /// Closes every link (shutdown path).
  void close_all();
  /// Closes only the data plane (lets control messages emitted while the
  /// ISM drains — e.g. steering actions — still land in the control links).
  void close_data_links();
  void close_control_links();

 private:
  bool deliver_control(std::size_t node, const ControlMessage& m);
  /// Installs an enabled backend and hands it the attached planes.
  void attach(std::unique_ptr<WireBackend> wire);

  TpFlavor flavor_;
  std::vector<std::unique_ptr<DataLink>> datas_;
  std::vector<std::unique_ptr<ControlLink>> controls_;
  std::array<std::atomic<std::uint64_t>, kControlKindCount> control_dropped_{};
  std::uint64_t control_send_timeout_ns_ = 100'000'000;  // 100 ms
  fault::FaultInjector* fault_ = nullptr;
  fault::RetryPolicy retry_;
  /// Guards backoff_rng_ across concurrent broadcasts (control plane is
  /// cold; one lock is fine).
  std::mutex control_mu_;
  stats::Rng backoff_rng_{0};
  obs::PipelineObserver* observer_ = nullptr;
  /// The real data plane, once enabled: a SocketTransport for kSocket, a
  /// ShmTransport for kShm.
  std::unique_ptr<WireBackend> wire_;
};

}  // namespace prism::core
