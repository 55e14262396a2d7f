// Causal ordering of instrumentation data at the ISM.
//
// The Vista ISM releases events only in causal order: "If an arriving event
// is in correct causal order, it is assigned a logical time-stamp and stored
// in an output buffer.  If the arriving event is not in causal order, it is
// added in one (or multiple) input buffer(s) to reconstruct the causal order
// of the data before dispatch to a tool" (§3.3).
//
// CausalReorderer enforces two constraints on the release order:
//   (1) program order: events of a (node, process) stream are released in
//       increasing per-stream sequence number;
//   (2) message order: a kRecv event is released only after its matching
//       kSend (the n-th recv at B from A with tag t matches the n-th send
//       from A to B with tag t).
// Released events receive monotonically increasing Lamport stamps.
// Held-back events wait in per-stream input buffers, whose occupancy is the
// paper's "average buffer length" / Falcon's "hold back ratio" metric.
//
// The work is per run of records, not per held stream: streams and channels
// get dense ids (one hash per run of same-stream offers), and a stream whose
// head recv waits on a channel is named on that channel's wait list.  A
// released send wakes only that list; a released record continues only its
// own stream.  Nothing rescans the held streams.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/record.hpp"

namespace prism::trace {

class CausalReorderer {
 public:
  /// `release` consumes events as they become causally deliverable.
  explicit CausalReorderer(std::function<void(const EventRecord&)> release);

  /// Offers one event.  May trigger zero or more releases (the offered
  /// event and any previously-held events it unblocks).
  void offer(EventRecord r);

  /// Declares `node` dead (its remaining records will never arrive) and
  /// force-releases what its death stranded: the node's own held streams are
  /// released in seq order tolerating gaps, and receives at live nodes that
  /// were waiting on the dead node's unreleased sends become deliverable.
  /// Returns the number of records released.  Degraded-mode operation: the
  /// released order may violate message order across the dead node's
  /// channels — by construction, since the matching sends are lost.
  /// Idempotent: expiring an already-dead node (or one with no pending
  /// records) releases nothing and returns 0.
  std::size_t expire_node(std::uint32_t node);

  /// Expires a whole group of nodes at once — the federation's unit of
  /// death is an aggregator shard, not a single node.  All nodes enter the
  /// dead set *before* any force-release, so holds between two dying nodes
  /// (a recv at one waiting on a send from the other) resolve in the same
  /// pass instead of stranding, and the ready fixed point runs once for the
  /// group.  Returns the total number of records released.
  std::size_t expire_nodes(const std::vector<std::uint32_t>& nodes);

  /// Restricts message-order enforcement to `local_nodes`: a recv whose
  /// peer is outside the scope is released without waiting for the matching
  /// send.  This is how a per-shard aggregator pre-reduces — it can order
  /// its own cluster's traffic, but a cross-shard send is processed by a
  /// different aggregator and will never flow through this one; holding the
  /// recv would strand it forever.  The root-level reorderer (unscoped)
  /// still enforces the waived pairs globally.  Program order is always
  /// enforced regardless of scope.  Call before the first offer().
  void restrict_scope(const std::vector<std::uint32_t>& local_nodes);

  const std::set<std::uint32_t>& dead_nodes() const { return dead_nodes_; }

  /// Number of events currently held back.
  std::size_t held() const { return held_count_; }
  /// Snapshot of every held-back event, in stream-key then seq order (the
  /// ISM's shutdown residue: causally unresolvable records it attributes as
  /// queue losses).
  std::vector<EventRecord> held_records() const;
  /// Events held back at least once (for the hold-back ratio).
  std::uint64_t held_back_total() const { return held_back_total_; }
  std::uint64_t offered_total() const { return offered_total_; }
  std::uint64_t released_total() const { return released_total_; }
  /// Falcon's hold-back ratio: held-back arrivals / total arrivals (§3.3.2).
  double hold_back_ratio() const {
    return offered_total_ == 0
               ? 0.0
               : static_cast<double>(held_back_total_) /
                     static_cast<double>(offered_total_);
  }

 private:
  using StreamKey = std::uint64_t;  // node << 32 | process
  using ChannelKey = std::uint64_t; // from << 40 | to << 16 | tag
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// Mixes the packed keys before bucketing: std::hash is the identity on
  /// integers, and channel keys (fields at bits 40, 16 and 0) collide badly
  /// under the table's modulo.
  struct KeyHash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      k ^= k >> 33;
      k *= 0xff51afd7ed558ccdULL;
      k ^= k >> 33;
      return static_cast<std::size_t>(k);
    }
  };

  /// One (node, process) stream, addressed by a dense id.
  struct Stream {
    StreamKey key = 0;
    /// Next expected per-stream sequence number.
    std::uint64_t next_seq = 0;
    /// Held-back events, kept sorted by seq.
    std::deque<EventRecord> held;
    /// Channel whose wait list names this stream (kNone when unlisted).
    std::uint32_t waiting_on = kNone;
    /// In the current or next pass of the wake queue.
    bool queued = false;
  };
  /// One message channel (from, to, tag), addressed by a dense id.
  struct Channel {
    std::uint64_t sends = 0;  ///< released sends
    std::uint64_t recvs = 0;  ///< released recvs
    /// Streams whose head is a recv blocked on this channel.
    std::vector<std::uint32_t> waiters;
  };

  static StreamKey stream_of(const EventRecord& r) {
    return (static_cast<std::uint64_t>(r.node) << 32) | r.process;
  }
  static ChannelKey channel_key(std::uint32_t from, std::uint32_t to,
                                std::uint16_t tag) {
    return (static_cast<std::uint64_t>(from) << 40) |
           (static_cast<std::uint64_t>(to) << 16) | tag;
  }

  std::uint32_t stream_id(StreamKey key);
  std::uint32_t channel_id(ChannelKey key);
  /// Channel a recv matches against: its peer's sends to its node.
  std::uint32_t recv_channel(const EventRecord& r) {
    return channel_id(channel_key(r.peer, r.node, r.tag));
  }
  bool in_scope(std::uint32_t node) const {
    return node < scope_.size() && scope_[node] != 0;
  }
  /// `r` is the next record of stream `s` and, for a recv, its matching
  /// send has been released (or is waived: out of scope or dead sender).
  bool deliverable(const Stream& s, const EventRecord& r);
  void release_now(std::uint32_t sid, const EventRecord& r);
  void hold(std::uint32_t sid, const EventRecord& r);
  /// Lists stream `sid` on its channel's wait list when its head is a recv
  /// blocked on message order.
  void park(std::uint32_t sid);
  /// Queues stream `sid` for a drain, in the pass a full rescan would have
  /// reached it (see the comment in causal.cpp).
  void wake(std::uint32_t sid);
  /// Drains queued streams until no stream can make progress.
  void run_passes();

  std::function<void(const EventRecord&)> release_;
  std::unordered_map<StreamKey, std::uint32_t, KeyHash> stream_ids_;
  std::vector<Stream> streams_;
  StreamKey last_key_ = 0;
  std::uint32_t last_id_ = kNone;
  std::unordered_map<ChannelKey, std::uint32_t, KeyHash> channel_ids_;
  std::vector<Channel> channels_;
  /// Wake queue of (stream key, id): a min-heap for the current pass, and
  /// the streams woken behind the pass cursor, which wait for the next pass.
  std::vector<std::pair<StreamKey, std::uint32_t>> pass_;
  std::vector<std::pair<StreamKey, std::uint32_t>> next_pass_;
  bool in_pass_ = false;
  StreamKey cursor_ = 0;
  /// Nodes whose missing records are known lost (see expire_node): message
  /// order is waived for receives naming them as peer.
  std::set<std::uint32_t> dead_nodes_;
  /// When scoped_ (see restrict_scope), message order is enforced only for
  /// peers whose scope_ bit is set; everything else is another shard's
  /// traffic.
  bool scoped_ = false;
  std::vector<char> scope_;
  std::size_t held_count_ = 0;
  std::uint64_t lamport_ = 0;
  std::uint64_t offered_total_ = 0;
  std::uint64_t held_back_total_ = 0;
  std::uint64_t released_total_ = 0;
};

/// Verifies that `records` (in release order) satisfies program order and
/// message order as defined above.  Returns the index of the first violation
/// or -1 when consistent.
long long first_causal_violation(const std::vector<EventRecord>& records);

}  // namespace prism::trace
