// Seeded input traces.  The program under test receives only these records;
// the seed decides every one of them.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace perfbench {

/// A trace split into generator streams: stream g is what generator thread
/// g replays, in order.  Records carry node, process, kind, tag, peer,
/// payload and per-(node, process) seq; the replayer stamps `timestamp`.
struct Trace {
  std::uint32_t nodes = 0;
  std::vector<std::vector<prism::trace::EventRecord>> streams;

  std::size_t records() const;
  /// Records of each node in program (seq) order.
  std::vector<std::vector<prism::trace::EventRecord>> per_node() const;
};

/// 1-D periodic halo exchange.  Each step, every node sends one message to
/// each neighbour (tag 0 leftward, tag 1 rightward), then receives the two
/// messages its neighbours sent it, with 0-2 user events around the
/// exchange: 80% of records are sends or receives.  Generator g of
/// `generators` owns a contiguous block of nodes and replays them step by
/// step, so a receive at the edge of its block can be recorded before the
/// matching send of the other generator's neighbour.
Trace make_halo_trace(std::uint32_t nodes, std::uint32_t steps,
                      std::uint32_t generators, std::uint64_t seed);

/// User events only, on nodes drawn uniformly at random, replayed by one
/// generator.
Trace make_user_trace(std::uint32_t nodes, std::size_t records,
                      std::uint64_t seed);

/// A seeded arrival order of the trace at a reorderer: repeatedly pick a
/// node with records left and take its next `chunk` records (a LIS flush of
/// that size).  Per-node program order is kept; cross-node order is not.
std::vector<prism::trace::EventRecord> interleave(const Trace& t,
                                                  std::size_t chunk,
                                                  std::uint64_t seed);

}  // namespace perfbench
