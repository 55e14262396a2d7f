// The fault plane for the live IS tier (DESIGN.md §10).
//
// The paper's thesis is that an instrumentation system must be evaluated
// before it is trusted (§1, Fig. 1); a production IS must additionally be
// evaluated under *failure*: streams break mid-frame, daemons die, tools hang,
// links stall.  This module makes those failures a reproducible input
// instead of an accident: a FaultPlan declares what can go wrong at which
// named pipeline site, and a FaultInjector turns the plan plus one RNG seed
// into a deterministic stream of per-site decisions.
//
// Determinism under threads: every (site, node) pair owns an independent
// SplitMix64 lane (seeded by Rng::hash_seed(seed, site, node)) and its own
// consult counter, so the decision taken at the k-th consult of a lane never
// depends on scheduling of other lanes.  As long as each component consults
// its own lane in a deterministic op order (which the live tier guarantees
// for single-producer sites), two runs with the same seed inject byte-
// identical fault sequences — the property the chaos soak tests assert.
//
// The injector is runtime-nullable everywhere (like obs::PipelineObserver):
// components hold a FaultInjector* defaulting to nullptr, and every hook
// site short-circuits on null, so un-faulted runs are bit-identical to
// builds that never heard of this header.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.hpp"

namespace prism::fault {

/// What the injector can make happen at a consulted site.
enum class FaultKind : std::uint8_t {
  kNone = 0,       ///< no fault this consult
  kSendFail,       ///< transient send failure (retryable)
  kFrameCorrupt,   ///< wire-frame corruption (bad magic on the wire)
  kPartialFrame,   ///< writer dies mid-frame (header without payload)
  kStall,          ///< the operation stalls for stall_ns before proceeding
  kCrash,          ///< the component dies at this consult (permanent)
  kSlowConsumer,   ///< consumer-side delay of stall_ns per item
};
inline constexpr std::size_t kFaultKindCount = 7;

std::string_view to_string(FaultKind k);

/// Named sites in the live tier where the fault plane is consulted.
enum class FaultSite : std::uint8_t {
  kTpSend = 0,     ///< LIS -> ISM data-link send (one consult per batch)
  kTpReceive,      ///< ISM input side (one consult per batch received)
  kTpControl,      ///< ISM -> LIS control broadcast (one consult per node)
  // Retired (the standalone pipe(2) link is gone).  The slots stay because
  // lanes are seeded from the site's value: renumbering would reseed them.
  kPipeSend,
  kPipeFrame,
  kLisTick,        ///< daemon LIS sampling tick (crash / stall injection)
  kIsmDispatch,    ///< ISM output-buffer dispatch (slow-consumer injection)
  kToolCallback,   ///< per-tool consume() (crash isolation; node = tool idx)
  kSocketSend,     ///< fd-stream link send entry (per frame; retryable)
  kSocketFrame,    ///< fd-stream link frame boundary (corruption injection)
  kShmPush,        ///< shm link ring push entry (per frame; retryable)
  kShmFrame,       ///< shm link frame boundary (corruption injection)
  kAggForward,     ///< aggregator ISM -> root ISM uplink send (per pre-reduced
                   ///< batch; node = shard id; crash kills the aggregator)
};
inline constexpr std::size_t kFaultSiteCount = 13;

std::string_view to_string(FaultSite s);

/// Matches every node / tool index at a site.
inline constexpr std::uint32_t kAnyNode = 0xFFFFFFFFu;

/// One declarative fault rule.  Triggers (probability / at_op / every_n)
/// compose: the spec fires on a consult when any enabled trigger fires.
/// Probability draws happen on every consult of a matching lane regardless
/// of outcome, so the lane's RNG consumption — and therefore every later
/// decision — is independent of which faults actually fired.
struct FaultSpec {
  FaultSite site = FaultSite::kTpSend;
  FaultKind kind = FaultKind::kNone;
  double probability = 0.0;     ///< per-consult Bernoulli; 0 disables
  std::uint64_t at_op = 0;      ///< fires on the at_op-th consult (1-based); 0 disables
  std::uint64_t every_n = 0;    ///< fires on every n-th consult; 0 disables
  std::uint64_t stall_ns = 0;   ///< duration for kStall / kSlowConsumer
  std::uint32_t node = kAnyNode;///< restrict to one node / tool index
};

/// The decision returned by a consult.  Evaluates truthy when a fault fired.
struct Fault {
  FaultKind kind = FaultKind::kNone;
  std::uint64_t stall_ns = 0;
  explicit operator bool() const { return kind != FaultKind::kNone; }
};

/// A declarative, seed-independent description of what can go wrong.
/// Build with add() or the named helpers; hand to a FaultInjector with a
/// seed to make it executable.
class FaultPlan {
 public:
  FaultPlan& add(FaultSpec spec);

  /// Transient send failures with probability `p` at `site`.
  FaultPlan& send_failure(FaultSite site, double p,
                          std::uint32_t node = kAnyNode);
  /// Stall of `ns` with probability `p` at `site`.
  FaultPlan& stall(FaultSite site, std::uint64_t ns, double p,
                   std::uint32_t node = kAnyNode);
  /// Component crash on the `at_op`-th consult of `site`.
  FaultPlan& crash(FaultSite site, std::uint64_t at_op,
                   std::uint32_t node = kAnyNode);
  /// Frame corruption with probability `p` at a wire frame boundary
  /// (`site` is kSocketFrame or kShmFrame; anything else throws).
  FaultPlan& corrupt_frame(double p, std::uint32_t node, FaultSite site);
  /// Writer death mid-frame on the `at_op`-th wire frame (`site` as above).
  FaultPlan& partial_frame(std::uint64_t at_op, std::uint32_t node,
                           FaultSite site);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

/// Aggregate injection accounting (what actually fired).
struct FaultInjectorStats {
  std::uint64_t consults = 0;
  std::uint64_t fired = 0;
  std::array<std::uint64_t, kFaultSiteCount> fired_at_site{};
  std::array<std::uint64_t, kFaultKindCount> fired_kind{};

  std::string to_string() const;
};

/// Executes a FaultPlan deterministically from a single seed.  Thread-safe;
/// all consults serialize on one mutex (fault runs trade a little hot-path
/// cost for exactness — null-injector runs pay nothing).
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Consults the plan at `site` for `node` (or tool index).  Advances that
  /// lane's op counter and RNG deterministically; returns the first spec
  /// (in plan order) whose trigger fires, or a kNone Fault.
  Fault consult(FaultSite site, std::uint32_t node = 0);

  std::uint64_t seed() const { return seed_; }
  const FaultPlan& plan() const { return plan_; }
  FaultInjectorStats stats() const;

 private:
  struct Lane {
    stats::Rng rng{0};
    std::uint64_t ops = 0;
  };

  FaultPlan plan_;
  std::uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Lane> lanes_;
  FaultInjectorStats stats_;
};

/// Retry/backoff policy for send paths (TP data sends, wire frames,
/// lifecycle-critical control messages).  Attempt k (1-based) backs off
/// base_backoff_ns * multiplier^(k-1), jittered by a uniform factor in
/// [1-jitter, 1+jitter].  max_attempts == 1 means "no retry".
struct RetryPolicy {
  std::uint32_t max_attempts = 3;
  std::uint64_t base_backoff_ns = 1'000;
  double multiplier = 2.0;
  double jitter = 0.25;

  /// Backoff before retry number `attempt` (1-based).  Draws one uniform
  /// from `rng` when jitter > 0.
  std::uint64_t backoff_ns(std::uint32_t attempt, stats::Rng& rng) const;
};

/// Sleeps the calling thread for `ns` (no-op when 0).  Used by injected
/// stalls and retry backoff so callers need no <thread> include.
void sleep_ns(std::uint64_t ns);

}  // namespace prism::fault
