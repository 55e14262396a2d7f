#include "halo.hpp"

#include <algorithm>

#include "stats/rng.hpp"

namespace perfbench {

using prism::trace::EventKind;
using prism::trace::EventRecord;

std::size_t Trace::records() const {
  std::size_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

std::vector<std::vector<EventRecord>> Trace::per_node() const {
  std::vector<std::vector<EventRecord>> out(nodes);
  for (const auto& s : streams)
    for (const auto& r : s) out[r.node].push_back(r);
  for (auto& v : out)
    std::sort(v.begin(), v.end(),
              [](const EventRecord& a, const EventRecord& b) {
                return a.seq < b.seq;
              });
  return out;
}

Trace make_halo_trace(std::uint32_t nodes, std::uint32_t steps,
                      std::uint32_t generators, std::uint64_t seed) {
  Trace t;
  t.nodes = nodes;
  t.streams.resize(generators);
  prism::stats::Rng rng(prism::stats::Rng::hash_seed(seed, 0x4a10, nodes));
  std::vector<std::uint64_t> seq(nodes, 0);
  auto push = [&](std::vector<EventRecord>& out, std::uint32_t node,
                  EventKind kind, std::uint32_t peer, std::uint16_t tag) {
    EventRecord r;
    r.node = node;
    r.kind = kind;
    r.peer = peer;
    r.tag = tag;
    r.payload = 64 + rng.next_below(4032);
    r.seq = seq[node]++;
    out.push_back(r);
  };
  for (std::uint32_t s = 0; s < steps; ++s) {
    for (std::uint32_t g = 0; g < generators; ++g) {
      const std::uint32_t lo = nodes * g / generators;
      const std::uint32_t hi = nodes * (g + 1) / generators;
      auto& out = t.streams[g];
      for (std::uint32_t n = lo; n < hi; ++n) {
        const std::uint32_t left = (n + nodes - 1) % nodes;
        const std::uint32_t right = (n + 1) % nodes;
        if (rng.next_below(2)) push(out, n, EventKind::kUserEvent, 0, 0);
        const bool left_first = rng.next_below(2) != 0;
        push(out, n, EventKind::kSend, left_first ? left : right,
             left_first ? 0 : 1);
        push(out, n, EventKind::kSend, left_first ? right : left,
             left_first ? 1 : 0);
        // The leftward message (tag 0) comes from the right neighbour and
        // the rightward one (tag 1) from the left.
        const bool right_first = rng.next_below(2) != 0;
        push(out, n, EventKind::kRecv, right_first ? right : left,
             right_first ? 0 : 1);
        push(out, n, EventKind::kRecv, right_first ? left : right,
             right_first ? 1 : 0);
        if (rng.next_below(2)) push(out, n, EventKind::kUserEvent, 0, 0);
      }
    }
  }
  return t;
}

Trace make_user_trace(std::uint32_t nodes, std::size_t records,
                      std::uint64_t seed) {
  Trace t;
  t.nodes = nodes;
  t.streams.resize(1);
  prism::stats::Rng rng(prism::stats::Rng::hash_seed(seed, 0x05e7, nodes));
  std::vector<std::uint64_t> seq(nodes, 0);
  t.streams[0].reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    EventRecord r;
    r.node = static_cast<std::uint32_t>(rng.next_below(nodes));
    r.kind = EventKind::kUserEvent;
    r.tag = static_cast<std::uint16_t>(rng.next_below(16));
    r.payload = rng.next_u64();
    r.seq = seq[r.node]++;
    t.streams[0].push_back(r);
  }
  return t;
}

std::vector<EventRecord> interleave(const Trace& t, std::size_t chunk,
                                    std::uint64_t seed) {
  const auto nodes = t.per_node();
  std::vector<std::size_t> pos(nodes.size(), 0);
  std::vector<std::uint32_t> live;
  for (std::uint32_t n = 0; n < nodes.size(); ++n)
    if (!nodes[n].empty()) live.push_back(n);
  prism::stats::Rng rng(prism::stats::Rng::hash_seed(seed, 0x1a7e, chunk));
  std::vector<EventRecord> out;
  out.reserve(t.records());
  while (!live.empty()) {
    const std::size_t k = rng.next_below(live.size());
    const std::uint32_t n = live[k];
    const std::size_t end = std::min(pos[n] + chunk, nodes[n].size());
    out.insert(out.end(), nodes[n].begin() + static_cast<std::ptrdiff_t>(pos[n]),
               nodes[n].begin() + static_cast<std::ptrdiff_t>(end));
    pos[n] = end;
    if (end == nodes[n].size()) {
      live[k] = live.back();
      live.pop_back();
    }
  }
  return out;
}

}  // namespace perfbench
