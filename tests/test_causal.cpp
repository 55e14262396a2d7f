// Logical clocks and the causal reorderer: program order, message order,
// hold-back accounting, and the property that any interleaving of valid
// per-process streams is released in a causally consistent order.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "stats/rng.hpp"
#include "trace/causal.hpp"
#include "trace/clock.hpp"

namespace prism::trace {
namespace {

EventRecord ev(std::uint32_t node, std::uint64_t seq,
               EventKind kind = EventKind::kUserEvent, std::uint32_t peer = 0,
               std::uint16_t tag = 0) {
  EventRecord r;
  r.node = node;
  r.process = 0;
  r.seq = seq;
  r.kind = kind;
  r.peer = peer;
  r.tag = tag;
  return r;
}

// ---- Lamport / vector clocks ----------------------------------------------------

TEST(LamportClock, TickMonotone) {
  LamportClock c;
  EXPECT_EQ(c.tick(), 1u);
  EXPECT_EQ(c.tick(), 2u);
  EXPECT_EQ(c.now(), 2u);
}

TEST(LamportClock, MergeJumpsPastRemote) {
  LamportClock c;
  c.tick();
  EXPECT_EQ(c.merge(10), 11u);
  EXPECT_EQ(c.merge(5), 12u);  // remote behind: still advances locally
}

TEST(VectorClock, HappensBeforeViaMessage) {
  VectorClock a(2, 0), b(2, 1);
  a.tick();                 // a: [1,0]
  const auto send = a.value();
  b.merge(send);            // b: [1,1]
  EXPECT_TRUE(VectorClock::happens_before(send, b.value()));
  EXPECT_FALSE(VectorClock::happens_before(b.value(), send));
}

TEST(VectorClock, ConcurrentEventsDetected) {
  VectorClock a(2, 0), b(2, 1);
  a.tick();
  b.tick();
  EXPECT_TRUE(VectorClock::concurrent(a.value(), b.value()));
}

TEST(VectorClock, SizeMismatchRejected) {
  VectorClock a(2, 0);
  EXPECT_THROW(VectorClock::happens_before(a.value(), {1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(VectorClock(3, 3), std::invalid_argument);
}

// ---- CausalReorderer -------------------------------------------------------------

TEST(CausalReorderer, InOrderStreamPassesThrough) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  for (std::uint64_t s = 0; s < 5; ++s) r.offer(ev(0, s));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(r.held(), 0u);
  EXPECT_EQ(r.hold_back_ratio(), 0.0);
  // Lamport stamps strictly increasing.
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_GT(out[i].lamport, out[i - 1].lamport);
}

TEST(CausalReorderer, OutOfOrderHeldThenReleased) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.offer(ev(0, 1));  // arrives before seq 0
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(r.held(), 1u);
  r.offer(ev(0, 0));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(r.held_back_total(), 1u);
  EXPECT_NEAR(r.hold_back_ratio(), 0.5, 1e-12);
}

TEST(CausalReorderer, RecvWaitsForSend) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  // Node 1's recv (from node 0) arrives before node 0's send.
  r.offer(ev(1, 0, EventKind::kRecv, /*peer=*/0, /*tag=*/7));
  EXPECT_TRUE(out.empty());
  r.offer(ev(0, 0, EventKind::kSend, /*peer=*/1, /*tag=*/7));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, EventKind::kSend);
  EXPECT_EQ(out[1].kind, EventKind::kRecv);
  EXPECT_LT(out[0].lamport, out[1].lamport);
}

TEST(CausalReorderer, MultipleMessagesSameChannelFifo) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  // Two sends, then two recvs offered in order: all release.
  r.offer(ev(0, 0, EventKind::kSend, 1, 3));
  r.offer(ev(0, 1, EventKind::kSend, 1, 3));
  r.offer(ev(1, 0, EventKind::kRecv, 0, 3));
  r.offer(ev(1, 1, EventKind::kRecv, 0, 3));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_LT(first_causal_violation(out), 0);
}

TEST(CausalReorderer, ChainedUnblocking) {
  // recv at node 1 unblocks only after node 0's send, which itself waits on
  // node 0's earlier event.
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.offer(ev(1, 0, EventKind::kRecv, 0, 1));   // held: no send yet
  r.offer(ev(0, 1, EventKind::kSend, 1, 1));   // held: seq 0 missing
  EXPECT_EQ(out.size(), 0u);
  r.offer(ev(0, 0));                            // releases everything
  ASSERT_EQ(out.size(), 3u);
  EXPECT_LT(first_causal_violation(out), 0);
}

TEST(CausalReorderer, IndependentStreamsDontBlockEachOther) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.offer(ev(0, 1));  // held
  r.offer(ev(1, 0));  // independent stream: releases immediately
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node, 1u);
}

TEST(CausalReorderer, ProcessesAreDistinctStreams) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  EventRecord a = ev(0, 0);
  a.process = 1;
  r.offer(a);  // (node 0, process 1) seq 0: releases
  EXPECT_EQ(out.size(), 1u);
  r.offer(ev(0, 0));  // (node 0, process 0) seq 0: also releases
  EXPECT_EQ(out.size(), 2u);
}

// Property: shuffled valid multi-process traffic is always released in
// causally consistent order, completely, with correct Lamport monotonicity
// per release order.
class CausalShuffle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalShuffle, RandomInterleavingsReleaseConsistently) {
  // Build a valid global history: 4 nodes, ring messages + local events.
  std::vector<EventRecord> history;
  std::vector<std::uint64_t> seq(4, 0);
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t n = 0; n < 4; ++n) {
      history.push_back(ev(n, seq[n]++));
      history.push_back(
          ev(n, seq[n]++, EventKind::kSend, (n + 1) % 4, 1));
    }
    for (std::uint32_t n = 0; n < 4; ++n) {
      history.push_back(
          ev(n, seq[n]++, EventKind::kRecv, (n + 3) % 4, 1));
    }
  }
  // Shuffle with a bounded displacement so per-stream seq remains a valid
  // arrival pattern (any permutation is fine for the reorderer; full shuffle
  // is the stress case).
  stats::Rng rng(GetParam());
  for (std::size_t i = history.size(); i > 1; --i)
    std::swap(history[i - 1], history[rng.next_below(i)]);

  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  for (const auto& e : history) r.offer(e);

  EXPECT_EQ(out.size(), history.size());
  EXPECT_EQ(r.held(), 0u);
  EXPECT_LT(first_causal_violation(out), 0);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_EQ(out[i].lamport, out[i - 1].lamport + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalShuffle,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u, 9001u));

// ---- first_causal_violation -------------------------------------------------------

// ---- Dead-node expiry (graceful degradation) ------------------------------------

TEST(CausalExpiry, RecvWaitingOnDeadPeerReleasedAfterExpire) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  // Node 1 receives from node 0, but node 0's send was lost with node 0.
  r.offer(ev(1, 0, EventKind::kRecv, /*peer=*/0, /*tag=*/7));
  EXPECT_EQ(r.held(), 1u);
  const std::size_t released = r.expire_node(0);
  EXPECT_EQ(released, 1u);
  EXPECT_EQ(r.held(), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, EventKind::kRecv);
  EXPECT_TRUE(r.dead_nodes().count(0));
}

TEST(CausalExpiry, LaterRecvsFromDeadPeerPassWithoutHolding) {
  // Once a peer is dead, message order is waived for its channels: new
  // receives naming it must not strand waiting for sends that cannot come.
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.expire_node(3);
  r.offer(ev(1, 0, EventKind::kRecv, /*peer=*/3, /*tag=*/1));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(r.held(), 0u);
}

TEST(CausalExpiry, DeadNodesOwnStreamReleasedToleratingSeqGaps) {
  // The dead node's held records are released in seq order even across the
  // gaps its death created (seq 1 is lost forever; 0, 2, 3 must come out).
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.offer(ev(2, 2));  // held: waiting for seq 0 and 1
  r.offer(ev(2, 3));
  r.offer(ev(2, 0));  // released immediately; 2 and 3 still gapped on seq 1
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(r.held(), 2u);
  EXPECT_EQ(r.expire_node(2), 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(out[2].seq, 3u);
  // Lamport stamps stay monotone through the forced release.
  EXPECT_LT(out[0].lamport, out[1].lamport);
  EXPECT_LT(out[1].lamport, out[2].lamport);
}

TEST(CausalExpiry, ExpireUnblocksChainedLiveStreams) {
  // A live node's recv was waiting on the dead node; expiring the dead node
  // must cascade: the recv releases, then the live node's later records.
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  r.offer(ev(1, 0, EventKind::kRecv, /*peer=*/0, /*tag=*/2));
  r.offer(ev(1, 1));  // program order: behind the held recv
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(r.expire_node(0), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, EventKind::kRecv);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(r.held(), 0u);
}

TEST(CausalChecker, DetectsProgramOrderViolation) {
  std::vector<EventRecord> recs{ev(0, 1), ev(0, 0)};
  EXPECT_EQ(first_causal_violation(recs), 0);
}

TEST(CausalChecker, DetectsRecvBeforeSend) {
  std::vector<EventRecord> recs{ev(1, 0, EventKind::kRecv, 0, 2),
                                ev(0, 0, EventKind::kSend, 1, 2)};
  EXPECT_EQ(first_causal_violation(recs), 0);
}

TEST(CausalChecker, AcceptsValidTrace) {
  std::vector<EventRecord> recs{ev(0, 0, EventKind::kSend, 1, 2),
                                ev(1, 0, EventKind::kRecv, 0, 2),
                                ev(0, 1), ev(1, 1)};
  EXPECT_LT(first_causal_violation(recs), 0);
}


// ---- Differential check against the full-rescan reorderer -----------------------

// The reorderer as it was before wake lists: std::map state and a fixed point
// that rescans every held stream after every releasing offer.  Kept here as
// the reference the wake-list reorderer must match offer by offer.
class RescanReorderer {
 public:
  explicit RescanReorderer(std::function<void(const EventRecord&)> release)
      : release_(std::move(release)) {}

  void offer(EventRecord r) {
    ++offered_total_;
    if (!deliverable(r)) {
      ++held_back_total_;
      auto& dq = held_[stream_of(r)];
      auto pos = std::lower_bound(
          dq.begin(), dq.end(), r,
          [](const EventRecord& a, const EventRecord& b) {
            return a.seq < b.seq;
          });
      dq.insert(pos, r);
      ++held_count_;
      return;
    }
    release_now(r);
    drain_ready();
  }

  std::size_t expire_nodes(const std::vector<std::uint32_t>& nodes) {
    const std::uint64_t before = released_total_;
    for (auto n : nodes) dead_nodes_.insert(n);
    for (auto node : nodes) {
      for (auto& [key, dq] : held_) {
        if (static_cast<std::uint32_t>(key >> 32) != node) continue;
        while (!dq.empty()) {
          EventRecord r = dq.front();
          dq.pop_front();
          --held_count_;
          release_now(r);
        }
      }
    }
    drain_ready();
    return static_cast<std::size_t>(released_total_ - before);
  }

  void restrict_scope(const std::vector<std::uint32_t>& local_nodes) {
    scoped_ = true;
    local_scope_.clear();
    local_scope_.insert(local_nodes.begin(), local_nodes.end());
  }

  std::size_t held() const { return held_count_; }
  std::uint64_t held_back_total() const { return held_back_total_; }
  std::vector<EventRecord> held_records() const {
    std::vector<EventRecord> out;
    for (const auto& [stream, q] : held_)
      out.insert(out.end(), q.begin(), q.end());
    return out;
  }

 private:
  static std::uint64_t stream_of(const EventRecord& r) {
    return (static_cast<std::uint64_t>(r.node) << 32) | r.process;
  }
  static std::uint64_t channel(std::uint32_t from, std::uint32_t to,
                               std::uint16_t tag) {
    return (static_cast<std::uint64_t>(from) << 40) |
           (static_cast<std::uint64_t>(to) << 16) | tag;
  }

  bool deliverable(const EventRecord& r) const {
    auto it = next_seq_.find(stream_of(r));
    const std::uint64_t expected = it == next_seq_.end() ? 0 : it->second;
    if (r.seq != expected) return false;
    if (r.kind == EventKind::kRecv) {
      if (scoped_ && local_scope_.count(r.peer) == 0) return true;
      const auto ch = channel(r.peer, r.node, r.tag);
      auto sit = sends_released_.find(ch);
      const std::uint64_t sends =
          sit == sends_released_.end() ? 0 : sit->second;
      auto rit = recvs_released_.find(ch);
      const std::uint64_t recvs =
          rit == recvs_released_.end() ? 0 : rit->second;
      if (recvs >= sends && dead_nodes_.count(r.peer) == 0) return false;
    }
    return true;
  }

  void release_now(const EventRecord& r) {
    EventRecord out = r;
    out.lamport = ++lamport_;
    next_seq_[stream_of(r)] = r.seq + 1;
    if (r.kind == EventKind::kSend)
      ++sends_released_[channel(r.node, r.peer, r.tag)];
    else if (r.kind == EventKind::kRecv)
      ++recvs_released_[channel(r.peer, r.node, r.tag)];
    ++released_total_;
    release_(out);
  }

  void drain_ready() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& [key, dq] : held_) {
        while (!dq.empty() && deliverable(dq.front())) {
          EventRecord r = dq.front();
          dq.pop_front();
          --held_count_;
          release_now(r);
          progressed = true;
        }
      }
    }
  }

  std::function<void(const EventRecord&)> release_;
  std::map<std::uint64_t, std::uint64_t> next_seq_;
  std::map<std::uint64_t, std::uint64_t> sends_released_;
  std::map<std::uint64_t, std::uint64_t> recvs_released_;
  std::map<std::uint64_t, std::deque<EventRecord>> held_;
  std::set<std::uint32_t> dead_nodes_;
  bool scoped_ = false;
  std::set<std::uint32_t> local_scope_;
  std::size_t held_count_ = 0;
  std::uint64_t lamport_ = 0;
  std::uint64_t offered_total_ = 0;
  std::uint64_t held_back_total_ = 0;
  std::uint64_t released_total_ = 0;
};

using RecordId = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, int,
                            std::uint32_t, std::uint16_t>;

RecordId id_of(const EventRecord& r) {
  return {r.node, r.process, r.seq, static_cast<int>(r.kind), r.peer, r.tag};
}

std::vector<RecordId> ids_of(const std::vector<EventRecord>& rs) {
  std::vector<RecordId> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(id_of(r));
  return out;
}

std::vector<RecordId> sorted_ids(const std::vector<EventRecord>& rs) {
  auto out = ids_of(rs);
  std::sort(out.begin(), out.end());
  return out;
}

struct Scenario {
  std::vector<EventRecord> arrivals;
  std::vector<std::uint32_t> scope;  ///< empty: unscoped
  std::vector<std::uint32_t> dead;   ///< expired as one group...
  std::size_t expire_at = 0;         ///< ...after this many offers
  std::uint32_t procs = 1;           ///< processes per node
};

// A seeded valid history of `nodes` x `procs` streams exchanging messages on
// `tags` tags.  Any process of a node may take any message sent to that node
// (matching is per node, channel and tag), so several processes of one node
// compete for one channel's sends.
std::vector<EventRecord> make_history(stats::Rng& rng, std::uint32_t nodes,
                                      std::uint32_t procs, std::uint16_t tags,
                                      std::size_t events) {
  std::vector<EventRecord> history;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> seq;
  // In-flight messages per receiving node: (from, tag).
  std::vector<std::vector<std::pair<std::uint32_t, std::uint16_t>>> pending(
      nodes);
  for (std::size_t i = 0; i < events; ++i) {
    const auto node = static_cast<std::uint32_t>(rng.next_below(nodes));
    EventRecord r;
    r.node = node;
    r.process = static_cast<std::uint32_t>(rng.next_below(procs));
    const auto roll = rng.next_below(10);
    if (roll < 4 && !pending[node].empty()) {
      auto& in = pending[node];
      const auto k = rng.next_below(in.size());
      r.kind = EventKind::kRecv;
      r.peer = in[k].first;
      r.tag = in[k].second;
      in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (roll < 8) {
      r.kind = EventKind::kSend;
      r.peer = static_cast<std::uint32_t>(rng.next_below(nodes));
      r.tag = static_cast<std::uint16_t>(rng.next_below(tags));
      pending[r.peer].emplace_back(node, r.tag);
    }
    r.seq = seq[{r.node, r.process}]++;
    history.push_back(r);
  }
  return history;
}

Scenario make_scenario(std::uint64_t seed, bool scoped, bool degraded) {
  stats::Rng rng(seed);
  const auto nodes = static_cast<std::uint32_t>(4 + rng.next_below(3));
  const auto procs = static_cast<std::uint32_t>(1 + seed % 3);
  const auto tags = static_cast<std::uint16_t>(1 + rng.next_below(3));
  auto history = make_history(rng, nodes, procs, tags, 600);
  Scenario sc;
  sc.procs = procs;
  if (scoped) {
    // A shard of the first half of the nodes: it sees only its members'
    // records, and their recvs from other shards are out of scope.
    for (std::uint32_t n = 0; n < nodes / 2; ++n) sc.scope.push_back(n);
    std::erase_if(history, [&](const EventRecord& r) {
      return r.node >= nodes / 2;
    });
  }
  if (degraded) {
    // Two nodes die together: a random share of their records (and every
    // record after a random cut) never arrives.
    sc.dead = {0, 1};
    const std::uint64_t cut = 20 + rng.next_below(60);
    std::erase_if(history, [&](const EventRecord& r) {
      return r.node <= 1 && (r.seq >= cut || rng.next_below(8) == 0);
    });
  }
  // Arrival order: a full shuffle half the time, otherwise per-node chunks
  // (a LIS flush) in random node order, keeping each stream's order.
  if (rng.next_below(2) == 0) {
    for (std::size_t i = history.size(); i > 1; --i)
      std::swap(history[i - 1], history[rng.next_below(i)]);
    sc.arrivals = std::move(history);
  } else {
    std::vector<std::deque<EventRecord>> by_node(nodes);
    for (const auto& r : history) by_node[r.node].push_back(r);
    while (sc.arrivals.size() < history.size()) {
      auto& q = by_node[rng.next_below(nodes)];
      const auto chunk = 1 + rng.next_below(12);
      for (std::uint64_t k = 0; k < chunk && !q.empty(); ++k) {
        sc.arrivals.push_back(q.front());
        q.pop_front();
      }
    }
  }
  sc.expire_at = degraded ? rng.next_below(sc.arrivals.size() + 1)
                          : sc.arrivals.size();
  return sc;
}

// Runs the wake-list reorderer over a scenario; returns its release order.
std::vector<EventRecord> run_wake_list(const Scenario& sc) {
  std::vector<EventRecord> out;
  CausalReorderer r([&](const EventRecord& e) { out.push_back(e); });
  if (!sc.scope.empty()) r.restrict_scope(sc.scope);
  for (std::size_t i = 0; i <= sc.arrivals.size(); ++i) {
    if (i == sc.expire_at && !sc.dead.empty()) r.expire_nodes(sc.dead);
    if (i < sc.arrivals.size()) r.offer(sc.arrivals[i]);
  }
  return out;
}

class CausalDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {
};

TEST_P(CausalDifferential, MatchesRescanReordererAfterEveryOffer) {
  const auto [seed, scoped, degraded] = GetParam();
  const Scenario sc = make_scenario(seed, scoped, degraded);
  std::vector<EventRecord> got, want;
  CausalReorderer fast([&](const EventRecord& e) { got.push_back(e); });
  RescanReorderer ref([&](const EventRecord& e) { want.push_back(e); });
  if (!sc.scope.empty()) {
    fast.restrict_scope(sc.scope);
    ref.restrict_scope(sc.scope);
  }
  std::size_t got_mark = 0, want_mark = 0;
  const auto check = [&](std::size_t step) {
    SCOPED_TRACE(::testing::Message() << "after step " << step);
    // The records released by this step: the same multiset, and (since the
    // wake queue drains streams where the full pass would have reached
    // them) in the same order, so Lamport stamps match too.
    std::vector<EventRecord> got_step(got.begin() + got_mark, got.end());
    std::vector<EventRecord> want_step(want.begin() + want_mark, want.end());
    ASSERT_EQ(sorted_ids(got_step), sorted_ids(want_step));
    ASSERT_EQ(ids_of(got_step), ids_of(want_step));
    got_mark = got.size();
    want_mark = want.size();
    ASSERT_EQ(fast.held(), ref.held());
    ASSERT_EQ(fast.held_back_total(), ref.held_back_total());
    ASSERT_EQ(ids_of(fast.held_records()), ids_of(ref.held_records()));
  };
  for (std::size_t i = 0; i <= sc.arrivals.size(); ++i) {
    if (i == sc.expire_at && !sc.dead.empty()) {
      ASSERT_EQ(fast.expire_nodes(sc.dead), ref.expire_nodes(sc.dead));
      check(i);
    }
    if (i < sc.arrivals.size()) {
      fast.offer(sc.arrivals[i]);
      ref.offer(sc.arrivals[i]);
      check(i);
    }
  }
  EXPECT_EQ(fast.released_total(), got.size());
  EXPECT_EQ(fast.offered_total(), sc.arrivals.size());
  if (!scoped && !degraded) {
    // Undegraded: whatever is released is in causal order.
    EXPECT_EQ(first_causal_violation(got), -1);
    // With one process per node a valid history also drains completely.
    // With several, both reorderers may hand a send to a receiving process
    // other than the one that took it in the history, and the other
    // process's recv then waits for a send that follows it causally.
    if (sc.procs == 1) {
      EXPECT_EQ(fast.held(), 0u);
      EXPECT_EQ(got.size(), sc.arrivals.size());
    }
  }
  // Deterministic: the same offers release the same sequence again.
  EXPECT_EQ(ids_of(run_wake_list(sc)), ids_of(got));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CausalDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 6u, 8u, 9u, 13u),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace prism::trace
