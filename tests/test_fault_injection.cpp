// The fault plane (DESIGN.md §10): deterministic seeded injection, retry /
// backoff, graceful degradation, and the chaos soak — admitted ==
// completed + lost + in_flight must hold no matter what the injector does,
// and two runs with the same seed must lose the same records at the same
// sites.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/environment.hpp"
#include "core/lis.hpp"
#include "core/socket_link.hpp"
#include "core/tool.hpp"
#include "fault/fault.hpp"
#include "obs/pipeline.hpp"

namespace prism {
namespace {

using core::DataLink;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultSpec;
using fault::RetryPolicy;

trace::EventRecord rec(std::uint32_t node, std::uint64_t seq,
                       std::uint32_t process = 0) {
  trace::EventRecord r;
  r.node = node;
  r.process = process;
  r.seq = seq;
  r.timestamp = seq;
  return r;
}

/// Tool that remembers everything it consumed.
class CollectTool final : public core::Tool {
 public:
  std::string_view name() const override { return "collect"; }
  void consume(const trace::EventRecord& r) override {
    std::lock_guard lk(mu_);
    records_.push_back(r);
  }
  std::vector<trace::EventRecord> records() const {
    std::lock_guard lk(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<trace::EventRecord> records_;
};

/// Tool that throws after `fail_after` records.
class FragileTool final : public core::Tool {
 public:
  explicit FragileTool(std::uint64_t fail_after) : fail_after_(fail_after) {}
  std::string_view name() const override { return "fragile"; }
  void consume(const trace::EventRecord&) override {
    if (++seen_ > fail_after_) throw std::runtime_error("tool crashed");
  }
  std::uint64_t seen() const { return seen_.load(); }

 private:
  const std::uint64_t fail_after_;
  std::atomic<std::uint64_t> seen_{0};
};

// ---- FaultPlan validation ----------------------------------------------------

TEST(FaultPlan, RejectsUnusableSpecs) {
  FaultPlan p;
  FaultSpec none;  // kind == kNone
  none.probability = 0.5;
  EXPECT_THROW(p.add(none), std::invalid_argument);

  FaultSpec bad_p;
  bad_p.kind = FaultKind::kSendFail;
  bad_p.probability = 1.5;
  EXPECT_THROW(p.add(bad_p), std::invalid_argument);

  FaultSpec no_trigger;
  no_trigger.kind = FaultKind::kSendFail;  // all triggers disabled
  EXPECT_THROW(p.add(no_trigger), std::invalid_argument);

  FaultSpec zero_stall;
  zero_stall.kind = FaultKind::kStall;
  zero_stall.probability = 0.5;
  zero_stall.stall_ns = 0;
  EXPECT_THROW(p.add(zero_stall), std::invalid_argument);
}

TEST(FaultPlan, FrameFaultsNeedALiveFrameSite) {
  // kPipeFrame is a retired slot: a plan naming it would never fire.
  FaultPlan p;
  EXPECT_THROW(p.corrupt_frame(0.1, fault::kAnyNode, FaultSite::kPipeFrame),
               std::invalid_argument);
  EXPECT_THROW(p.partial_frame(1, fault::kAnyNode, FaultSite::kPipeFrame),
               std::invalid_argument);
  EXPECT_THROW(p.corrupt_frame(0.1, fault::kAnyNode, FaultSite::kTpSend),
               std::invalid_argument);
  EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, NamedBuildersProduceValidSpecs) {
  FaultPlan p;
  p.send_failure(FaultSite::kTpSend, 0.1)
      .stall(FaultSite::kIsmDispatch, 1000, 0.05)
      .crash(FaultSite::kLisTick, 7, 2)
      .corrupt_frame(0.01, fault::kAnyNode, FaultSite::kSocketFrame)
      .partial_frame(3, fault::kAnyNode, FaultSite::kShmFrame);
  EXPECT_EQ(p.specs().size(), 5u);
  EXPECT_FALSE(p.empty());
  // stall() at a consumer site maps to kSlowConsumer, elsewhere to kStall.
  EXPECT_EQ(p.specs()[1].kind, FaultKind::kSlowConsumer);
  FaultPlan q;
  q.stall(FaultSite::kTpSend, 1000, 0.05);
  EXPECT_EQ(q.specs()[0].kind, FaultKind::kStall);
}

// ---- Injector determinism ----------------------------------------------------

TEST(FaultInjector, SameSeedSamePlanSameDecisions) {
  FaultPlan p;
  p.send_failure(FaultSite::kTpSend, 0.3)
      .corrupt_frame(0.2, fault::kAnyNode, FaultSite::kSocketFrame);
  FaultInjector a(p, 42), b(p, 42);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.consult(FaultSite::kTpSend, 1);
    const auto fb = b.consult(FaultSite::kTpSend, 1);
    EXPECT_EQ(fa.kind, fb.kind) << "diverged at consult " << i;
  }
  EXPECT_EQ(a.stats().fired, b.stats().fired);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPlan p;
  p.send_failure(FaultSite::kTpSend, 0.5);
  FaultInjector a(p, 1), b(p, 2);
  int differ = 0;
  for (int i = 0; i < 200; ++i)
    differ += a.consult(FaultSite::kTpSend).kind !=
              b.consult(FaultSite::kTpSend).kind;
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, LanesAreScheduleIndependent) {
  // The decision sequence of lane (site, node) must not depend on how
  // consults of other lanes interleave with it.
  FaultPlan p;
  p.send_failure(FaultSite::kTpSend, 0.4);
  FaultInjector seq(p, 7), mix(p, 7);

  std::vector<FaultKind> seq0, seq1, mix0, mix1;
  for (int i = 0; i < 100; ++i) seq0.push_back(seq.consult(FaultSite::kTpSend, 0).kind);
  for (int i = 0; i < 100; ++i) seq1.push_back(seq.consult(FaultSite::kTpSend, 1).kind);
  for (int i = 0; i < 100; ++i) {  // interleaved
    mix0.push_back(mix.consult(FaultSite::kTpSend, 0).kind);
    mix1.push_back(mix.consult(FaultSite::kTpSend, 1).kind);
  }
  EXPECT_EQ(seq0, mix0);
  EXPECT_EQ(seq1, mix1);
}

TEST(FaultInjector, AtOpFiresExactlyOnce) {
  FaultPlan p;
  p.crash(FaultSite::kLisTick, 3);
  FaultInjector inj(p, 0);
  for (std::uint64_t op = 1; op <= 10; ++op) {
    const auto f = inj.consult(FaultSite::kLisTick, 5);
    EXPECT_EQ(f.kind == FaultKind::kCrash, op == 3) << "op " << op;
  }
}

TEST(FaultInjector, EveryNFiresPeriodically) {
  FaultPlan p;
  FaultSpec s;
  s.site = FaultSite::kTpSend;
  s.kind = FaultKind::kSendFail;
  s.every_n = 4;
  p.add(s);
  FaultInjector inj(p, 0);
  int fired = 0;
  for (int op = 1; op <= 12; ++op)
    fired += inj.consult(FaultSite::kTpSend).kind == FaultKind::kSendFail;
  EXPECT_EQ(fired, 3);
}

TEST(FaultInjector, EmptyPlanNeverFires) {
  FaultInjector inj(FaultPlan{}, 99);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(static_cast<bool>(inj.consult(FaultSite::kTpSend, i % 3)));
  EXPECT_EQ(inj.stats().fired, 0u);
  EXPECT_EQ(inj.stats().consults, 100u);
}

// ---- RetryPolicy --------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsGeometricallyWithinJitterBounds) {
  RetryPolicy rp;
  rp.base_backoff_ns = 1000;
  rp.multiplier = 2.0;
  rp.jitter = 0.25;
  stats::Rng rng(123);
  for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const double nominal = 1000.0 * std::pow(2.0, attempt - 1);
    const auto ns = rp.backoff_ns(attempt, rng);
    EXPECT_GE(static_cast<double>(ns), 0.75 * nominal - 1) << attempt;
    EXPECT_LE(static_cast<double>(ns), 1.25 * nominal + 1) << attempt;
  }
}

TEST(RetryPolicy, ZeroJitterIsExact) {
  RetryPolicy rp;
  rp.base_backoff_ns = 500;
  rp.multiplier = 3.0;
  rp.jitter = 0.0;
  stats::Rng rng(1);
  EXPECT_EQ(rp.backoff_ns(1, rng), 500u);
  EXPECT_EQ(rp.backoff_ns(2, rng), 1500u);
  EXPECT_EQ(rp.backoff_ns(3, rng), 4500u);
}

// ---- LIS-level degradation ----------------------------------------------------

TEST(FaultLis, ForwardingRetriesTransientFailureAndDelivers) {
  DataLink link(16);
  core::ForwardingLis lis(0, link);
  FaultPlan p;
  FaultSpec s;
  s.site = FaultSite::kTpSend;
  s.kind = FaultKind::kSendFail;
  s.at_op = 1;  // only the first attempt fails
  p.add(s);
  FaultInjector inj(p, 11);
  RetryPolicy rp;
  rp.base_backoff_ns = 100;  // keep the test fast
  lis.set_fault(&inj, rp);

  lis.record(rec(0, 0));
  const auto st = lis.stats();
  EXPECT_EQ(st.records_forwarded, 1u);
  EXPECT_EQ(st.lost_send, 0u);
  EXPECT_TRUE(st.conserved());
  EXPECT_EQ(link.size(), 1u);
}

TEST(FaultLis, ForwardingAttributesRetryExhaustion) {
  DataLink link(16);
  core::ForwardingLis lis(0, link);
  obs::PipelineObserver obs;
  lis.set_observer(&obs);
  FaultPlan p;
  FaultSpec s;
  s.site = FaultSite::kTpSend;
  s.kind = FaultKind::kSendFail;
  s.every_n = 1;  // every attempt fails
  p.add(s);
  FaultInjector inj(p, 5);
  RetryPolicy rp;
  rp.max_attempts = 2;
  rp.base_backoff_ns = 100;
  lis.set_fault(&inj, rp);

  lis.record(rec(0, 0));
  const auto st = lis.stats();
  EXPECT_EQ(st.lost_send, 1u);
  EXPECT_EQ(st.records_forwarded, 0u);
  EXPECT_TRUE(st.conserved());
  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.lost_at[static_cast<std::size_t>(
                obs::LossSite::kRetryExhausted)],
            1u);
  EXPECT_EQ(rep.in_flight, 0u);
}

TEST(FaultLis, ForwardingConservedWhenLinkClosed) {
  // Regression: a closed link used to double-count (recorded AND dropped).
  DataLink link(4);
  link.close();
  core::ForwardingLis lis(0, link);
  for (int i = 0; i < 3; ++i) lis.record(rec(0, i));
  const auto st = lis.stats();
  EXPECT_EQ(st.recorded, 0u);
  EXPECT_EQ(st.dropped, 3u);
  EXPECT_EQ(st.records_forwarded, 0u);
  EXPECT_TRUE(st.conserved());
}

TEST(FaultLis, BufferedCrashLosesBatchThenRefusesRecords) {
  DataLink link(16);
  core::BufferedLis lis(0, 4, std::make_unique<core::FlushOnFill>(), link);
  obs::PipelineObserver obs;
  lis.set_observer(&obs);
  FaultPlan p;
  p.crash(FaultSite::kTpSend, 1);  // die at the very first send
  FaultInjector inj(p, 3);
  lis.set_fault(&inj);

  for (int i = 0; i < 4; ++i) lis.record(rec(0, i));  // fills -> FOF flush
  EXPECT_TRUE(lis.dead());
  lis.record(rec(0, 4));  // refused: the LIS is dead
  const auto st = lis.stats();
  EXPECT_EQ(st.lost_dead, 4u);
  EXPECT_EQ(st.dropped, 1u);
  EXPECT_EQ(st.records_forwarded, 0u);
  EXPECT_TRUE(st.conserved());
  EXPECT_EQ(link.size(), 0u);
  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.lost_at[static_cast<std::size_t>(obs::LossSite::kLisDead)],
            5u);
  EXPECT_EQ(rep.in_flight, 0u);
}

TEST(FaultLis, DaemonCrashDrainsPipesAndStaysConserved) {
  DataLink link(1024);
  core::DaemonLis lis(0, 2, 64, 200'000, link);  // 0.2 ms ticks
  FaultPlan p;
  p.crash(FaultSite::kLisTick, 3);  // die on the third tick
  FaultInjector inj(p, 17);
  lis.set_fault(&inj);

  std::uint64_t seq = 0;
  while (!lis.dead() && seq < 200'000) {
    lis.record(rec(0, seq, static_cast<std::uint32_t>(seq % 2)));
    ++seq;
  }
  ASSERT_TRUE(lis.dead());
  for (int i = 0; i < 5; ++i)  // post-mortem records are refused
    lis.record(rec(0, seq + i));
  lis.stop();  // must not hang or double-account
  const auto st = lis.stats();
  EXPECT_TRUE(st.conserved()) << "recorded=" << st.recorded
                              << " fwd=" << st.records_forwarded
                              << " dropped=" << st.dropped
                              << " lost_dead=" << st.lost_dead
                              << " buffered=" << st.buffered;
  EXPECT_EQ(st.buffered, 0u);
  EXPECT_GE(st.dropped, 5u);
}

// ---- ISM-level degradation -----------------------------------------------------

TEST(FaultIsm, DeadSourceExpiryReleasesStrandedRecords) {
  // Node 1 loses its seq-1 batch (send failure, no retry), then crashes on
  // the 4th send.  The seq-2 record reached the ISM but is held back behind
  // the gap; marking the source dead at shutdown must release it instead of
  // stranding it as residue.
  core::EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = true;
  core::IntegratedEnvironment env(cfg);
  auto tool = std::make_shared<CollectTool>();
  env.attach_tool(tool);
  obs::PipelineObserver obs;
  env.set_observer(&obs);

  FaultPlan p;
  FaultSpec fail;
  fail.site = FaultSite::kTpSend;
  fail.kind = FaultKind::kSendFail;
  fail.at_op = 2;
  fail.node = 1;
  p.add(fail);
  p.crash(FaultSite::kTpSend, 4, /*node=*/1);
  FaultInjector inj(p, 21);
  RetryPolicy rp;
  rp.max_attempts = 1;  // no retry: op numbers stay 1:1 with records
  env.set_fault(&inj, rp);
  env.start();

  env.record(rec(0, 0));
  env.record(rec(1, 0));  // op1: delivered
  env.record(rec(1, 1));  // op2: send fails, no retry -> lost, seq gap
  env.record(rec(1, 2));  // op3: delivered, held back behind the gap
  env.record(rec(1, 3));  // op4: crash -> node 1 dead
  EXPECT_TRUE(env.lis(1).dead());
  env.stop();

  const auto ism = env.ism().stats();
  EXPECT_EQ(ism.sources_dead, 1u);
  EXPECT_EQ(ism.expired_released, 1u);
  EXPECT_EQ(ism.still_held, 0u);
  EXPECT_TRUE(ism.conserved());

  bool seq2_dispatched = false;
  for (const auto& r : tool->records())
    if (r.node == 1 && r.seq == 2) seq2_dispatched = true;
  EXPECT_TRUE(seq2_dispatched);

  const auto deg = env.degradation();
  EXPECT_EQ(deg.lises_dead, 1u);
  EXPECT_EQ(deg.holdback_expired, 1u);
  EXPECT_TRUE(deg.degraded());

  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.in_flight, 0u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.lost);
}

TEST(FaultIsm, InjectedToolCrashIsolatesOnlyThatTool) {
  core::EnvironmentConfig cfg;
  cfg.nodes = 1;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = false;
  core::IntegratedEnvironment env(cfg);
  auto survivor = std::make_shared<CollectTool>();
  auto victim = std::make_shared<CollectTool>();
  env.attach_tool(survivor);  // tool index 0
  env.attach_tool(victim);    // tool index 1
  FaultPlan p;
  p.crash(FaultSite::kToolCallback, 3, /*tool index=*/1);
  FaultInjector inj(p, 9);
  env.set_fault(&inj);
  env.start();
  for (int i = 0; i < 10; ++i) env.record(rec(0, i));
  env.stop();

  EXPECT_EQ(survivor->records().size(), 10u);
  EXPECT_EQ(victim->records().size(), 2u);  // died at its 3rd callback
  EXPECT_EQ(env.ism().stats().tools_failed, 1u);
  EXPECT_EQ(env.degradation().tools_failed, 1u);
}

TEST(FaultIsm, ThrowingToolIsIsolatedOrganically) {
  core::EnvironmentConfig cfg;
  cfg.nodes = 1;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = false;
  core::IntegratedEnvironment env(cfg);
  auto fragile = std::make_shared<FragileTool>(4);
  auto survivor = std::make_shared<CollectTool>();
  env.attach_tool(fragile);
  env.attach_tool(survivor);
  env.start();
  for (int i = 0; i < 12; ++i) env.record(rec(0, i));
  env.stop();

  EXPECT_EQ(survivor->records().size(), 12u);
  EXPECT_EQ(fragile->seen(), 5u);  // 4 ok + the one that threw
  EXPECT_EQ(env.ism().stats().tools_failed, 1u);
}

// ---- Chaos soak ---------------------------------------------------------------

struct ChaosCounts {
  std::uint64_t admitted = 0, completed = 0, lost = 0;
  std::array<std::uint64_t, obs::kLossSiteCount> lost_at{};
  std::uint64_t recorded = 0, forwarded = 0, lost_send = 0, lost_dead = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t lost_wire = 0;
  std::uint32_t lises_dead = 0;

  bool operator==(const ChaosCounts& o) const {
    return admitted == o.admitted && completed == o.completed &&
           lost == o.lost && lost_at == o.lost_at && recorded == o.recorded &&
           forwarded == o.forwarded && lost_send == o.lost_send &&
           lost_dead == o.lost_dead && dispatched == o.dispatched &&
           lost_wire == o.lost_wire && lises_dead == o.lises_dead;
  }
};

ChaosCounts run_chaos(std::uint64_t seed,
                      core::TpFlavor flavor = core::TpFlavor::kPipe) {
  FaultPlan plan;
  // The crash goes first: the first matching spec wins a consult, and the
  // at_op trigger is one-shot — a Bernoulli send-failure landing on the same
  // consult would otherwise mask the crash forever.
  plan.crash(FaultSite::kTpSend, 40, /*node=*/2);
  plan.send_failure(FaultSite::kTpSend, 0.05);
  FaultInjector inj(plan, seed);

  core::EnvironmentConfig cfg;
  cfg.nodes = 4;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.flush_policy = core::FlushPolicyKind::kFof;
  cfg.local_buffer_capacity = 8;
  cfg.link_capacity = 4096;
  cfg.tp_flavor = flavor;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = true;
  core::IntegratedEnvironment env(cfg);
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  RetryPolicy rp;
  rp.base_backoff_ns = 100;
  env.set_fault(&inj, rp);
  env.start();
  for (std::uint64_t i = 0; i < 2000; ++i)
    env.record(rec(static_cast<std::uint32_t>(i % 4), i / 4));
  env.stop();

  const auto rep = obs.lineage.report();
  // The conservation identity must close exactly: every admitted record is
  // either delivered to the tools or attributed to a named loss site.
  EXPECT_EQ(rep.in_flight, 0u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.lost);
  EXPECT_DOUBLE_EQ(rep.attributed_loss_fraction(), 1.0);
  const auto lis = env.total_lis_stats();
  EXPECT_TRUE(lis.conserved());
  const auto ism = env.ism().stats();
  EXPECT_TRUE(ism.conserved());
  EXPECT_TRUE(env.degradation().degraded());
  EXPECT_GE(env.degradation().lises_dead, 1u);

  ChaosCounts c;
  c.admitted = rep.admitted;
  c.completed = rep.completed;
  c.lost = rep.lost;
  c.lost_at = rep.lost_at;
  c.recorded = lis.recorded;
  c.forwarded = lis.records_forwarded;
  c.lost_send = lis.lost_send;
  c.lost_dead = lis.lost_dead;
  c.dispatched = ism.records_dispatched;
  c.lost_wire = env.degradation().records_lost_wire;
  c.lises_dead = env.degradation().lises_dead;
  return c;
}

TEST(ChaosSoak, SeededRunConservesAndRepeatsExactly) {
  const auto first = run_chaos(1234);
  const auto second = run_chaos(1234);
  EXPECT_TRUE(first == second)
      << "same-seed chaos runs diverged: admitted " << first.admitted << "/"
      << second.admitted << " completed " << first.completed << "/"
      << second.completed << " lost " << first.lost << "/" << second.lost;
  // The fault plan actually did something: node 2 died and records were
  // attributed to the new loss sites.
  EXPECT_EQ(first.lises_dead, 1u);
  EXPECT_GT(first.lost_dead, 0u);
  EXPECT_GT(first.lost, 0u);
  EXPECT_GT(first.completed, 0u);
}

TEST(ChaosSoak, DifferentSeedsStillConserve) {
  const auto a = run_chaos(7);
  const auto b = run_chaos(8);
  // Conservation asserted inside run_chaos for both; the seeds should
  // plausibly produce different fault sequences.
  EXPECT_EQ(a.admitted, b.admitted);  // offered load is seed-independent
}

TEST(ChaosSoak, PipeAndSocketLedgersMatchForTheSameSeed) {
  // The fault plan only consults LIS-side lanes (kTpSend), and lanes are
  // schedule-independent, so routing the data plane over real sockets must
  // not change a single ledger entry: same records admitted, same records
  // lost at the same sites, nothing extra destroyed on the wire.
  const auto pipe = run_chaos(4242, core::TpFlavor::kPipe);
  const auto socket = run_chaos(4242, core::TpFlavor::kSocket);
  EXPECT_TRUE(pipe == socket)
      << "transport changed the ledger: admitted " << pipe.admitted << "/"
      << socket.admitted << " completed " << pipe.completed << "/"
      << socket.completed << " lost " << pipe.lost << "/" << socket.lost
      << " lost_wire " << pipe.lost_wire << "/" << socket.lost_wire;
  EXPECT_EQ(socket.lost_wire, 0u);  // no socket-site faults in the plan
  EXPECT_GT(socket.completed, 0u);
}

/// Socket-path chaos: LIS faults plus retryable wire-send failures.  Only
/// synchronous fault sites (kTpSend, kSocketSend) — asynchronous wire
/// corruption splits losses between sites by reader/writer timing and is
/// exercised by the conservation-only test below.
ChaosCounts run_socket_chaos(std::uint64_t seed) {
  FaultPlan plan;
  plan.crash(FaultSite::kTpSend, 40, /*node=*/2);
  plan.send_failure(FaultSite::kTpSend, 0.05);
  plan.send_failure(FaultSite::kSocketSend, 0.3);
  FaultInjector inj(plan, seed);

  core::EnvironmentConfig cfg;
  cfg.nodes = 4;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.flush_policy = core::FlushPolicyKind::kFof;
  cfg.local_buffer_capacity = 8;
  cfg.link_capacity = 4096;
  cfg.tp_flavor = core::TpFlavor::kSocket;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = true;
  core::IntegratedEnvironment env(cfg);
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  RetryPolicy rp;
  rp.base_backoff_ns = 100;
  env.set_fault(&inj, rp);
  env.start();
  for (std::uint64_t i = 0; i < 2000; ++i)
    env.record(rec(static_cast<std::uint32_t>(i % 4), i / 4));
  env.stop();

  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.in_flight, 0u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.lost);
  EXPECT_DOUBLE_EQ(rep.attributed_loss_fraction(), 1.0);
  EXPECT_TRUE(env.total_lis_stats().conserved());
  EXPECT_TRUE(env.ism().stats().conserved());

  ChaosCounts c;
  c.admitted = rep.admitted;
  c.completed = rep.completed;
  c.lost = rep.lost;
  c.lost_at = rep.lost_at;
  c.recorded = env.total_lis_stats().recorded;
  c.forwarded = env.total_lis_stats().records_forwarded;
  c.lost_send = env.total_lis_stats().lost_send;
  c.lost_dead = env.total_lis_stats().lost_dead;
  c.dispatched = env.ism().stats().records_dispatched;
  c.lost_wire = env.degradation().records_lost_wire;
  c.lises_dead = env.degradation().lises_dead;
  return c;
}

TEST(SocketChaos, SeededSocketRunRepeatsExactly) {
  const auto first = run_socket_chaos(99);
  const auto second = run_socket_chaos(99);
  EXPECT_TRUE(first == second)
      << "same-seed socket chaos runs diverged: admitted " << first.admitted
      << "/" << second.admitted << " lost " << first.lost << "/"
      << second.lost << " lost_wire " << first.lost_wire << "/"
      << second.lost_wire;
  EXPECT_EQ(first.lises_dead, 1u);
  EXPECT_GT(first.completed, 0u);
  EXPECT_GT(first.lost, 0u);
}

TEST(SocketChaos, WireCorruptionStillConserves) {
  // Asynchronous corruption: where exactly each record dies (aborted frame,
  // stranded in the kernel buffer, EPIPE after the reader quit) depends on
  // reader/writer timing — but the identity admitted == completed + lost +
  // in_flight must close exactly, with every loss attributed.
  FaultPlan plan;
  plan.corrupt_frame(0.02, fault::kAnyNode, FaultSite::kSocketFrame);
  plan.partial_frame(30, fault::kAnyNode, FaultSite::kSocketFrame);
  FaultInjector inj(plan, 31337);

  core::EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = core::LisStyle::kForwarding;
  cfg.tp_flavor = core::TpFlavor::kSocket;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = false;
  core::IntegratedEnvironment env(cfg);
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  env.set_fault(&inj);
  env.start();
  for (std::uint64_t i = 0; i < 1000; ++i)
    env.record(rec(static_cast<std::uint32_t>(i % 2), i / 2));
  env.stop();

  const auto rep = obs.lineage.report();
  EXPECT_EQ(rep.in_flight, 0u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.lost);
  EXPECT_DOUBLE_EQ(rep.attributed_loss_fraction(), 1.0);
  EXPECT_TRUE(env.total_lis_stats().conserved());
  // The stream died mid-run: wire losses were recorded and surfaced in the
  // degradation report.
  EXPECT_GT(env.degradation().records_lost_wire, 0u);
  EXPECT_TRUE(env.degradation().degraded());
  EXPECT_TRUE(env.tp().socket_link(0).stream_corrupt());
  EXPECT_EQ(env.degradation().records_lost_wire,
            env.tp().socket_transport()->records_lost_total());
}

TEST(ChaosSoak, NullInjectorIsBitIdenticalToDetachedRun) {
  auto run = [](bool attach_null_fault) {
    core::EnvironmentConfig cfg;
    cfg.nodes = 2;
    cfg.lis_style = core::LisStyle::kBuffered;
    cfg.flush_policy = core::FlushPolicyKind::kFof;
    cfg.local_buffer_capacity = 8;
    cfg.ism.input = core::InputConfig::kSiso;
    cfg.ism.causal_ordering = true;
    core::IntegratedEnvironment env(cfg);
    obs::PipelineObserver obs;
    env.set_observer(&obs);
    if (attach_null_fault) env.set_fault(nullptr);
    env.start();
    for (std::uint64_t i = 0; i < 400; ++i)
      env.record(rec(static_cast<std::uint32_t>(i % 2), i / 2));
    env.stop();
    EXPECT_FALSE(env.degradation().degraded());
    const auto rep = obs.lineage.report();
    return std::tuple{rep.admitted, rep.completed, rep.lost,
                      env.total_lis_stats().records_forwarded};
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace prism
