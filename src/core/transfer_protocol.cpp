#include "core/transfer_protocol.hpp"

#include <stdexcept>

#include "core/shm_link.hpp"
#include "core/socket_link.hpp"
#include "obs/live/flight.hpp"
#include "obs/obs.hpp"

namespace prism::core {

std::string_view to_string(ControlKind k) {
  switch (k) {
    case ControlKind::kStart: return "start";
    case ControlKind::kStop: return "stop";
    case ControlKind::kFlushAll: return "flush_all";
    case ControlKind::kSetSamplingPeriod: return "set_sampling_period";
    case ControlKind::kEnableInstrumentation: return "enable_instrumentation";
    case ControlKind::kDisableInstrumentation: return "disable_instrumentation";
    case ControlKind::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool lifecycle_critical(ControlKind k) {
  return k == ControlKind::kShutdown || k == ControlKind::kFlushAll ||
         k == ControlKind::kStop;
}

std::string_view to_string(TpFlavor f) {
  switch (f) {
    case TpFlavor::kPipe: return "pipe";
    case TpFlavor::kSocket: return "socket";
    case TpFlavor::kShm: return "shm";
  }
  return "unknown";
}

std::string_view to_string(SocketDomain d) {
  switch (d) {
    case SocketDomain::kUnix: return "unix";
    case SocketDomain::kTcpLoopback: return "tcp";
  }
  return "unknown";
}

TransferProtocol::TransferProtocol(TpFlavor flavor, std::size_t nodes,
                                   std::size_t data_links,
                                   std::size_t link_capacity)
    : flavor_(flavor) {
  if (nodes == 0) throw std::invalid_argument("TransferProtocol: 0 nodes");
  if (data_links == 0 || (data_links != 1 && data_links != nodes))
    throw std::invalid_argument(
        "TransferProtocol: data_links must be 1 (SISO) or == nodes (MISO)");
  datas_.reserve(data_links);
  for (std::size_t i = 0; i < data_links; ++i)
    datas_.push_back(std::make_unique<DataLink>(link_capacity));
  controls_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    controls_.push_back(std::make_unique<ControlLink>(link_capacity));
}

TransferProtocol::~TransferProtocol() {
  if (wire_) {
    // The pumps exit once their ingress links close; the reader follows the
    // resulting EOFs.  Closing first makes the joins in the backend
    // destructor finite even when the owner never ran an orderly shutdown.
    close_data_links();
    wire_.reset();
  }
}

void TransferProtocol::attach(std::unique_ptr<WireBackend> wire) {
  wire_ = std::move(wire);
  wire_->set_fault(fault_, retry_);
  wire_->set_observer(observer_);
}

void TransferProtocol::enable_socket_backend(const SocketOptions& opts) {
  if (flavor_ != TpFlavor::kSocket)
    throw std::logic_error(
        "TransferProtocol: socket backend requires TpFlavor::kSocket");
  if (wire_)
    throw std::logic_error("TransferProtocol: socket backend already enabled");
  attach(std::make_unique<SocketTransport>(*this, opts));
}

void TransferProtocol::enable_shm_backend(const ShmOptions& opts) {
  if (flavor_ != TpFlavor::kShm)
    throw std::logic_error(
        "TransferProtocol: shm backend requires TpFlavor::kShm");
  if (wire_)
    throw std::logic_error("TransferProtocol: shm backend already enabled");
  attach(std::make_unique<ShmTransport>(*this, opts));
}

void TransferProtocol::enable_backend(const SocketOptions& socket,
                                      const ShmOptions& shm) {
  if (flavor_ == TpFlavor::kSocket) enable_socket_backend(socket);
  if (flavor_ == TpFlavor::kShm) enable_shm_backend(shm);
}

DataLink& TransferProtocol::receive_link(std::size_t index) {
  return wire_ ? wire_->egress(index) : data_link(index);
}

SocketTransport* TransferProtocol::socket_transport() {
  return socket_backend_enabled() ? static_cast<SocketTransport*>(wire_.get())
                                  : nullptr;
}

ShmTransport* TransferProtocol::shm_transport() {
  return shm_backend_enabled() ? static_cast<ShmTransport*>(wire_.get())
                               : nullptr;
}

SocketLink& TransferProtocol::socket_link(std::size_t index) {
  if (auto* t = socket_transport()) return t->link(index);
  throw std::logic_error("TransferProtocol: socket backend not enabled");
}

ShmLink& TransferProtocol::shm_link(std::size_t index) {
  if (auto* t = shm_transport()) return t->link(index);
  throw std::logic_error("TransferProtocol: shm backend not enabled");
}

void TransferProtocol::set_fault(fault::FaultInjector* f,
                                 fault::RetryPolicy retry) {
  fault_ = f;
  retry_ = retry;
  backoff_rng_ =
      stats::Rng(stats::Rng::hash_seed(f ? f->seed() : 0, 0x7c0ull));
  if (wire_) wire_->set_fault(f, retry);
}

void TransferProtocol::set_observer(obs::PipelineObserver* o) {
  observer_ = o;
  if (wire_) wire_->set_observer(o);
}

DataLink& TransferProtocol::data_link_for(std::uint32_t node) {
  if (node >= controls_.size())
    throw std::out_of_range("TransferProtocol: bad node");
  return datas_.size() == 1 ? *datas_[0] : *datas_.at(node);
}

ControlLink& TransferProtocol::control_link(std::uint32_t node) {
  return *controls_.at(node);
}

bool TransferProtocol::deliver_control(std::size_t node,
                                       const ControlMessage& m) {
  // Injected control-plane faults: one consult per (broadcast, node); a
  // kSendFail on a critical kind is retried with backoff, mirroring the TP
  // data path.  Organic full-link pressure on critical kinds gets bounded
  // blocking (push_for) instead of the old silent try_push drop.
  const bool critical = lifecycle_critical(m.kind);
  std::uint32_t attempt = 0;
  for (;;) {
    if (fault_) {
      const auto f = fault_->consult(fault::FaultSite::kTpControl,
                                     static_cast<std::uint32_t>(node));
      if (f.kind == fault::FaultKind::kStall ||
          f.kind == fault::FaultKind::kSlowConsumer)
        fault::sleep_ns(f.stall_ns);
      if (f.kind == fault::FaultKind::kSendFail) {
        PRISM_OBS_COUNT("core.tp.control_send_faults");
        if (!critical || ++attempt >= retry_.max_attempts) return false;
        fault::sleep_ns(retry_.backoff_ns(attempt, backoff_rng_));
        continue;
      }
    }
    if (critical)
      return controls_[node]->push_for(
          m, std::chrono::nanoseconds(control_send_timeout_ns_));
    return controls_[node]->try_push(m);
  }
}

void TransferProtocol::broadcast(const ControlMessage& m) {
  PRISM_OBS_COUNT("core.tp.control_broadcasts");
  std::lock_guard lk(control_mu_);
  for (std::size_t i = 0; i < controls_.size(); ++i) {
    ControlMessage copy = m;
    copy.target_node = static_cast<std::uint32_t>(i);
    if (!deliver_control(i, copy)) {
      // The message for this node is lost (closed link, timeout on a full
      // critical link, or injected failure past the retry budget).  Never
      // silent: the loss is attributed to its ControlKind.
      control_dropped_[static_cast<std::size_t>(m.kind)].fetch_add(
          1, std::memory_order_relaxed);
      PRISM_OBS_COUNT("core.tp.control_dropped");
      PRISM_OBS_FLIGHT("control_drop", to_string(m.kind), i, 1);
    }
  }
}

std::uint64_t TransferProtocol::control_dropped_total() const {
  std::uint64_t total = 0;
  for (const auto& c : control_dropped_)
    total += c.load(std::memory_order_relaxed);
  return total;
}

void TransferProtocol::sample_depths(obs::Timeline* tl, double t) const {
  if (!tl) return;
  for (std::size_t i = 0; i < datas_.size(); ++i)
    tl->sample_changed("tp.link" + std::to_string(i) + ".depth", t,
                       static_cast<double>(datas_[i]->size()));
}

void TransferProtocol::close_all() {
  close_data_links();
  close_control_links();
}

void TransferProtocol::close_data_links() {
  for (auto& d : datas_) d->close();
  // The backend pumps drain the closed links asynchronously (attributing
  // whatever a dead stream can no longer carry); wait for that accounting
  // to finish so ledgers read after shutdown are final, not racing.
  if (wire_) wire_->quiesce();
}

void TransferProtocol::close_control_links() {
  for (auto& c : controls_) c->close();
}

}  // namespace prism::core
