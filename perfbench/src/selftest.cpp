// The benchmark's own tests: seeded inputs, trace validity, percentile
// math, and the incremental causal check.  Exits nonzero on any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "halo.hpp"
#include "percentile.hpp"
#include "probes.hpp"
#include "trace/causal.hpp"

namespace {

using prism::trace::EventKind;
using prism::trace::EventRecord;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool same(const perfbench::Trace& a, const perfbench::Trace& b) {
  if (a.nodes != b.nodes || a.streams.size() != b.streams.size()) return false;
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    if (a.streams[s].size() != b.streams[s].size()) return false;
    for (std::size_t i = 0; i < a.streams[s].size(); ++i) {
      const auto& x = a.streams[s][i];
      const auto& y = b.streams[s][i];
      if (x.node != y.node || x.kind != y.kind || x.peer != y.peer ||
          x.tag != y.tag || x.payload != y.payload || x.seq != y.seq)
        return false;
    }
  }
  return true;
}

/// A causally valid serialization of a halo trace: per node and step, the
/// records up to its last send go first, then the rest of the step.
std::vector<EventRecord> serialize(const perfbench::Trace& t) {
  const auto nodes = t.per_node();
  std::vector<std::size_t> pos(nodes.size(), 0);
  std::vector<EventRecord> out;
  bool more = true;
  while (more) {
    more = false;
    // Phase 1: each node up to and including its step's second send.
    std::vector<std::size_t> phase_end(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      std::size_t i = pos[n], sends = 0;
      while (i < nodes[n].size() && sends < 2)
        if (nodes[n][i++].kind == EventKind::kSend) ++sends;
      out.insert(out.end(), nodes[n].begin() + pos[n], nodes[n].begin() + i);
      phase_end[n] = i;
    }
    // Phase 2: the two receives and any trailing user event.
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      std::size_t i = phase_end[n], recvs = 0;
      while (i < nodes[n].size() && recvs < 2)
        if (nodes[n][i++].kind == EventKind::kRecv) ++recvs;
      while (i < nodes[n].size() && nodes[n][i].kind == EventKind::kUserEvent &&
             (i + 1 == nodes[n].size() ||
              nodes[n][i + 1].kind != EventKind::kSend))
        ++i;
      out.insert(out.end(), nodes[n].begin() + phase_end[n],
                 nodes[n].begin() + i);
      pos[n] = i;
      if (i < nodes[n].size()) more = true;
    }
  }
  return out;
}

long long check_index(const std::vector<EventRecord>& v, std::uint32_t nodes) {
  perfbench::CausalCheck c(nodes);
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!c.offer(v[i])) return static_cast<long long>(i);
  return -1;
}

}  // namespace

int main() {
  using perfbench::make_halo_trace;
  using perfbench::make_user_trace;

  // Same seed, same trace; another seed, another trace.
  expect(same(make_halo_trace(16, 200, 2, 7), make_halo_trace(16, 200, 2, 7)),
         "halo trace: same seed gives an identical trace");
  expect(!same(make_halo_trace(16, 200, 2, 7), make_halo_trace(16, 200, 2, 8)),
         "halo trace: another seed gives another trace");
  expect(same(make_user_trace(4, 5000, 3), make_user_trace(4, 5000, 3)),
         "user trace: same seed gives an identical trace");

  // Every receive has its send, and the mix is 80% messages.
  for (const std::uint32_t nodes : {16u, 64u}) {
    const auto t = make_halo_trace(nodes, 300, 2, 11);
    const auto order = serialize(t);
    expect(order.size() == t.records(), "halo trace: serialization complete");
    expect(prism::trace::first_causal_violation(order) == -1,
           "halo trace: every recv has its send (first_causal_violation)");
    expect(check_index(order, nodes) == -1,
           "halo trace: the incremental check accepts it");
    std::size_t sends = 0, recvs = 0;
    for (const auto& r : order) {
      sends += r.kind == EventKind::kSend;
      recvs += r.kind == EventKind::kRecv;
    }
    const double share = static_cast<double>(sends + recvs) /
                         static_cast<double>(order.size());
    expect(sends == recvs && share > 0.78 && share < 0.82,
           "halo trace: sends == recvs, ~80% messages");
    const auto arrivals = perfbench::interleave(t, 64, 5);
    const auto replay = perfbench::replay_offers(arrivals);
    expect(replay.all_released && replay.peak_held > 0,
           "halo trace: an interleaved replay is fully released");
  }

  // Percentiles use linear interpolation between closest ranks (R-7), the
  // rule of Python's statistics.quantiles(method="inclusive").
  {
    std::vector<double> v{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    const auto p = perfbench::percentiles(v);
    expect(std::fabs(p.p50 - 5.5) < 1e-12, "percentile: p50 of 1..10 is 5.5");
    expect(std::fabs(p.p90 - 9.1) < 1e-12, "percentile: p90 of 1..10 is 9.1");
    expect(std::fabs(p.p99 - 9.91) < 1e-12,
           "percentile: p99 of 1..10 is 9.91");
    std::vector<double> w = v;
    expect(perfbench::quantile(w, 0) == 1 && perfbench::quantile(w, 1) == 10,
           "percentile: q0 and q1 are the extremes");
    expect(perfbench::median({42}) == 42 && perfbench::median({}) == 0,
           "percentile: one sample, and none");
    expect(perfbench::median({3, 1, 2}) == 2, "percentile: odd-count median");
    expect(std::fabs(perfbench::grouped_median({1, 2, 2, 2, 3}) - 2.0) < 1e-12 &&
               std::fabs(perfbench::grouped_median({2, 2, 3, 3, 3, 3}) -
                         2.5 - 1.0 / 4) < 1e-12 &&
               perfbench::grouped_median({5, 5, 5, 5}) == 5.0,
           "percentile: grouped median interpolates inside the 1 ns bin");
  }

  // The incremental check rejects crafted violations at the same index as
  // first_causal_violation.
  {
    EventRecord send, recv, user;
    send.node = 0;
    send.kind = EventKind::kSend;
    send.peer = 1;
    send.tag = 3;
    recv.node = 1;
    recv.kind = EventKind::kRecv;
    recv.peer = 0;
    recv.tag = 3;
    user.node = 2;
    const std::vector<EventRecord> good{user, send, recv};
    const std::vector<EventRecord> recv_first{user, recv, send};
    EventRecord gap = user;
    gap.seq = 1;
    const std::vector<EventRecord> seq_gap{send, gap};
    EventRecord wrong_tag = recv;
    wrong_tag.tag = 4;
    const std::vector<EventRecord> unmatched{send, wrong_tag};
    for (const auto* v : {&good, &recv_first, &seq_gap, &unmatched})
      expect(check_index(*v, 3) == prism::trace::first_causal_violation(*v),
             "causal check: same verdict as first_causal_violation");
    expect(check_index(recv_first, 3) == 1,
           "causal check: rejects a recv before its send");
    expect(check_index(seq_gap, 3) == 1, "causal check: rejects a seq gap");
    expect(check_index(unmatched, 3) == 1,
           "causal check: rejects a recv on the wrong channel");
  }

  std::printf("%s\n", g_failures ? "SELFTEST FAILED" : "selftest passed");
  return g_failures ? 1 : 0;
}
