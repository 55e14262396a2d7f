#include "fault/fault.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/live/flight.hpp"

namespace prism::fault {

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kSendFail: return "send_fail";
    case FaultKind::kFrameCorrupt: return "frame_corrupt";
    case FaultKind::kPartialFrame: return "partial_frame";
    case FaultKind::kStall: return "stall";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSlowConsumer: return "slow_consumer";
  }
  return "unknown";
}

std::string_view to_string(FaultSite s) {
  switch (s) {
    case FaultSite::kTpSend: return "tp_send";
    case FaultSite::kTpReceive: return "tp_receive";
    case FaultSite::kTpControl: return "tp_control";
    case FaultSite::kPipeSend: return "pipe_send";
    case FaultSite::kPipeFrame: return "pipe_frame";
    case FaultSite::kLisTick: return "lis_tick";
    case FaultSite::kIsmDispatch: return "ism_dispatch";
    case FaultSite::kToolCallback: return "tool_callback";
    case FaultSite::kSocketSend: return "socket_send";
    case FaultSite::kSocketFrame: return "socket_frame";
    case FaultSite::kShmPush: return "shm_push";
    case FaultSite::kShmFrame: return "shm_frame";
    case FaultSite::kAggForward: return "agg_forward";
  }
  return "unknown";
}

// ---------------------------------------------------------------- FaultPlan

FaultPlan& FaultPlan::add(FaultSpec spec) {
  if (spec.kind == FaultKind::kNone)
    throw std::invalid_argument("FaultPlan: spec with kind kNone");
  if (spec.probability < 0.0 || spec.probability > 1.0)
    throw std::invalid_argument("FaultPlan: probability outside [0,1]");
  if (spec.probability == 0.0 && spec.at_op == 0 && spec.every_n == 0)
    throw std::invalid_argument("FaultPlan: spec with no enabled trigger");
  if ((spec.kind == FaultKind::kStall ||
       spec.kind == FaultKind::kSlowConsumer) &&
      spec.stall_ns == 0)
    throw std::invalid_argument("FaultPlan: stall fault with stall_ns == 0");
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::send_failure(FaultSite site, double p,
                                   std::uint32_t node) {
  FaultSpec s;
  s.site = site;
  s.kind = FaultKind::kSendFail;
  s.probability = p;
  s.node = node;
  return add(s);
}

FaultPlan& FaultPlan::stall(FaultSite site, std::uint64_t ns, double p,
                            std::uint32_t node) {
  FaultSpec s;
  s.site = site;
  s.kind = site == FaultSite::kIsmDispatch || site == FaultSite::kToolCallback
               ? FaultKind::kSlowConsumer
               : FaultKind::kStall;
  s.probability = p;
  s.stall_ns = ns;
  s.node = node;
  return add(s);
}

FaultPlan& FaultPlan::crash(FaultSite site, std::uint64_t at_op,
                            std::uint32_t node) {
  FaultSpec s;
  s.site = site;
  s.kind = FaultKind::kCrash;
  s.at_op = at_op;
  s.node = node;
  return add(s);
}

FaultPlan& FaultPlan::corrupt_frame(double p, std::uint32_t node,
                                    FaultSite site) {
  if (site != FaultSite::kSocketFrame && site != FaultSite::kShmFrame)
    throw std::invalid_argument("FaultPlan: corrupt_frame needs a frame site");
  FaultSpec s;
  s.site = site;
  s.kind = FaultKind::kFrameCorrupt;
  s.probability = p;
  s.node = node;
  return add(s);
}

FaultPlan& FaultPlan::partial_frame(std::uint64_t at_op, std::uint32_t node,
                                    FaultSite site) {
  if (site != FaultSite::kSocketFrame && site != FaultSite::kShmFrame)
    throw std::invalid_argument("FaultPlan: partial_frame needs a frame site");
  FaultSpec s;
  s.site = site;
  s.kind = FaultKind::kPartialFrame;
  s.at_op = at_op;
  s.node = node;
  return add(s);
}

// ---------------------------------------------------------------- FaultInjector

namespace {

std::uint64_t lane_key(FaultSite site, std::uint32_t node) {
  return (static_cast<std::uint64_t>(site) << 32) | node;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

Fault FaultInjector::consult(FaultSite site, std::uint32_t node) {
  std::lock_guard lk(mu_);
  ++stats_.consults;
  const auto key = lane_key(site, node);
  auto [it, fresh] = lanes_.try_emplace(key);
  Lane& lane = it->second;
  if (fresh)
    lane.rng = stats::Rng(stats::Rng::hash_seed(
        seed_, static_cast<std::uint64_t>(site), node));
  ++lane.ops;

  Fault out;
  for (const auto& spec : plan_.specs()) {
    if (spec.site != site) continue;
    if (spec.node != kAnyNode && spec.node != node) continue;
    // Draw for every probabilistic matching spec, even after a fault has
    // been chosen: the lane's RNG consumption per consult is then a function
    // of the plan alone, never of which faults happened to fire.
    bool fires = false;
    if (spec.probability > 0.0 && lane.rng.next_bernoulli(spec.probability))
      fires = true;
    if (spec.at_op != 0 && lane.ops == spec.at_op) fires = true;
    if (spec.every_n != 0 && lane.ops % spec.every_n == 0) fires = true;
    if (fires && !out) {
      out.kind = spec.kind;
      out.stall_ns = spec.stall_ns;
    }
  }
  if (out) {
    ++stats_.fired;
    ++stats_.fired_at_site[static_cast<std::size_t>(site)];
    ++stats_.fired_kind[static_cast<std::size_t>(out.kind)];
    PRISM_OBS_FLIGHT(
        "fault",
        std::string(to_string(out.kind)) + "@" + std::string(to_string(site)),
        node, 0);
  }
  return out;
}

FaultInjectorStats FaultInjector::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::string FaultInjectorStats::to_string() const {
  std::ostringstream os;
  os << "faults: consults=" << consults << " fired=" << fired << '\n';
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    if (fired_at_site[i] == 0) continue;
    os << "  at " << ::prism::fault::to_string(static_cast<FaultSite>(i))
       << ": " << fired_at_site[i] << '\n';
  }
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    if (fired_kind[i] == 0) continue;
    os << "  kind " << ::prism::fault::to_string(static_cast<FaultKind>(i))
       << ": " << fired_kind[i] << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------- RetryPolicy

std::uint64_t RetryPolicy::backoff_ns(std::uint32_t attempt,
                                      stats::Rng& rng) const {
  if (base_backoff_ns == 0) return 0;
  const std::uint32_t k = attempt == 0 ? 1 : attempt;
  double b = static_cast<double>(base_backoff_ns) *
             std::pow(multiplier, static_cast<double>(k - 1));
  if (jitter > 0.0) b *= 1.0 - jitter + 2.0 * jitter * rng.next_double();
  if (b < 0.0) b = 0.0;
  return static_cast<std::uint64_t>(b);
}

void sleep_ns(std::uint64_t ns) {
  if (ns == 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace prism::fault
