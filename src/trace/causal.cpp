#include "trace/causal.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>

namespace prism::trace {

// Release order is defined as a fixed point over full passes: after every
// releasing offer, scan every held stream in stream-key order, draining each
// head while it is deliverable, and repeat whole passes until one releases
// nothing.  Most of such a scan is wasted: a stream's head can only become
// deliverable when (a) its own stream releases (next_seq moves), (b) a send
// is released on the channel its head recv waits on, or (c) the dead set
// grows.  So only those streams are woken, and each is drained at the point
// a full pass would have reached it: a stream woken ahead of the pass cursor
// (larger key) in the current pass, one woken behind it in the next.  The
// order matters when several processes of one node receive on the same
// channel and compete for one released send: the winner is the one a full
// pass meets first, so every offer releases exactly the records, in exactly
// the order, that the full-pass definition does (tests/test_causal.cpp
// checks this against a rescanning reference).

CausalReorderer::CausalReorderer(
    std::function<void(const EventRecord&)> release)
    : release_(std::move(release)) {
  if (!release_) throw std::invalid_argument("CausalReorderer: null release");
}

std::uint32_t CausalReorderer::stream_id(StreamKey key) {
  // Records arrive in per-stream runs (one LIS flush is one node's records),
  // so most lookups hit the last key.
  if (last_id_ != kNone && key == last_key_) return last_id_;
  const auto [it, inserted] = stream_ids_.try_emplace(
      key, static_cast<std::uint32_t>(streams_.size()));
  if (inserted) streams_.emplace_back().key = key;
  last_key_ = key;
  last_id_ = it->second;
  return last_id_;
}

std::uint32_t CausalReorderer::channel_id(ChannelKey key) {
  const auto [it, inserted] = channel_ids_.try_emplace(
      key, static_cast<std::uint32_t>(channels_.size()));
  if (inserted) channels_.emplace_back();
  return it->second;
}

bool CausalReorderer::deliverable(const Stream& s, const EventRecord& r) {
  if (r.seq != s.next_seq) return false;
  if (r.kind != EventKind::kRecv) return true;
  // Out-of-scope peer: the matching send flows through another shard's
  // aggregator and will never be offered here; message order for this
  // channel is the unscoped (root) reorderer's job.
  if (scoped_ && !in_scope(r.peer)) return true;
  const Channel& c = channels_[recv_channel(r)];
  // Matching send not yet released: hold — unless the sender is dead, in
  // which case that send is known lost and waiting would strand the recv.
  return c.recvs < c.sends || dead_nodes_.count(r.peer) != 0;
}

void CausalReorderer::restrict_scope(
    const std::vector<std::uint32_t>& local_nodes) {
  scoped_ = true;
  scope_.clear();
  for (const auto n : local_nodes) {
    if (n >= scope_.size()) scope_.resize(std::size_t{n} + 1, 0);
    scope_[n] = 1;
  }
}

void CausalReorderer::release_now(std::uint32_t sid, const EventRecord& r) {
  EventRecord out = r;
  out.lamport = ++lamport_;
  streams_[sid].next_seq = r.seq + 1;
  if (r.kind == EventKind::kSend) {
    const std::uint32_t cid = channel_id(channel_key(r.node, r.peer, r.tag));
    Channel& c = channels_[cid];
    ++c.sends;
    // The new send may unblock the recvs waiting on this channel.
    for (const auto w : c.waiters) {
      if (streams_[w].waiting_on != cid) continue;  // stale entry
      streams_[w].waiting_on = kNone;
      wake(w);
    }
    c.waiters.clear();
  } else if (r.kind == EventKind::kRecv) {
    ++channels_[recv_channel(r)].recvs;
  }
  ++released_total_;
  release_(out);
}

void CausalReorderer::park(std::uint32_t sid) {
  Stream& s = streams_[sid];
  const EventRecord& head = s.held.front();
  // A head behind a seq gap waits on program order: only an offer to its
  // own stream (or expiry) can move it, and both wake the stream directly.
  if (head.seq != s.next_seq || head.kind != EventKind::kRecv) return;
  const std::uint32_t cid = recv_channel(head);
  if (s.waiting_on == cid) return;
  s.waiting_on = cid;
  channels_[cid].waiters.push_back(sid);
}

void CausalReorderer::hold(std::uint32_t sid, const EventRecord& r) {
  ++held_back_total_;
  ++held_count_;
  auto& dq = streams_[sid].held;
  // Insert keeping the per-stream deque sorted by seq (in-order arrivals
  // behind a gap append).
  if (dq.empty() || dq.back().seq < r.seq) {
    dq.push_back(r);
  } else {
    dq.insert(std::lower_bound(dq.begin(), dq.end(), r,
                               [](const EventRecord& a, const EventRecord& b) {
                                 return a.seq < b.seq;
                               }),
              r);
  }
  park(sid);
}

void CausalReorderer::wake(std::uint32_t sid) {
  Stream& s = streams_[sid];
  if (s.queued || (in_pass_ && s.key == cursor_)) return;
  s.queued = true;
  if (!in_pass_ || s.key > cursor_) {
    pass_.emplace_back(s.key, sid);
    std::push_heap(pass_.begin(), pass_.end(), std::greater<>{});
  } else {
    next_pass_.emplace_back(s.key, sid);
  }
}

void CausalReorderer::run_passes() {
  in_pass_ = true;
  while (!pass_.empty() || !next_pass_.empty()) {
    if (pass_.empty()) {
      pass_.swap(next_pass_);
      std::make_heap(pass_.begin(), pass_.end(), std::greater<>{});
    }
    std::pop_heap(pass_.begin(), pass_.end(), std::greater<>{});
    const std::uint32_t sid = pass_.back().second;
    pass_.pop_back();
    Stream& s = streams_[sid];
    s.queued = false;
    cursor_ = s.key;
    while (!s.held.empty() && deliverable(s, s.held.front())) {
      const EventRecord r = s.held.front();
      s.held.pop_front();
      --held_count_;
      release_now(sid, r);
    }
    if (!s.held.empty()) park(sid);
  }
  in_pass_ = false;
}

void CausalReorderer::offer(EventRecord r) {
  ++offered_total_;
  const std::uint32_t sid = stream_id(stream_of(r));
  if (!deliverable(streams_[sid], r)) {
    hold(sid, r);
    return;
  }
  release_now(sid, r);
  // Continue only this stream, plus whatever r's send woke.
  if (!streams_[sid].held.empty()) wake(sid);
  if (!pass_.empty()) run_passes();
}

std::size_t CausalReorderer::expire_node(std::uint32_t node) {
  return expire_nodes({node});
}

std::size_t CausalReorderer::expire_nodes(
    const std::vector<std::uint32_t>& nodes) {
  const std::uint64_t before = released_total_;
  // The whole group enters the dead set before any release: a recv held at
  // one dying node waiting on another dying node's lost send must see the
  // peer's message-order waiver during its own force-release.
  for (auto n : nodes) dead_nodes_.insert(n);
  // Force-release each dead node's own held streams (in stream-key order)
  // in seq order, tolerating gaps: the missing records died with the node
  // and will never arrive (release_now advances next_seq past each gap).
  for (auto node : nodes) {
    std::map<StreamKey, std::uint32_t> own;
    for (std::uint32_t sid = 0; sid < streams_.size(); ++sid)
      if (static_cast<std::uint32_t>(streams_[sid].key >> 32) == node)
        own.emplace(streams_[sid].key, sid);
    for (const auto& [key, sid] : own) {
      auto& dq = streams_[sid].held;
      while (!dq.empty()) {
        const EventRecord r = dq.front();
        dq.pop_front();
        --held_count_;
        release_now(sid, r);
      }
    }
  }
  // The waiver can unblock any recv naming a dead peer, so wait lists no
  // longer say who may move: wake every stream with held records once.
  for (auto& c : channels_) c.waiters.clear();
  for (std::uint32_t sid = 0; sid < streams_.size(); ++sid) {
    streams_[sid].waiting_on = kNone;
    if (!streams_[sid].held.empty()) wake(sid);
  }
  run_passes();
  return static_cast<std::size_t>(released_total_ - before);
}

std::vector<EventRecord> CausalReorderer::held_records() const {
  std::map<StreamKey, const std::deque<EventRecord>*> by_key;
  for (const auto& s : streams_)
    if (!s.held.empty()) by_key.emplace(s.key, &s.held);
  std::vector<EventRecord> out;
  out.reserve(held_count_);
  for (const auto& [key, dq] : by_key)
    out.insert(out.end(), dq->begin(), dq->end());
  return out;
}

long long first_causal_violation(const std::vector<EventRecord>& records) {
  std::map<std::uint64_t, std::uint64_t> next_seq;
  std::map<std::uint64_t, std::uint64_t> sends, recvs;
  auto stream_of = [](const EventRecord& r) {
    return (static_cast<std::uint64_t>(r.node) << 32) | r.process;
  };
  auto channel = [](std::uint32_t from, std::uint32_t to, std::uint16_t tag) {
    return (static_cast<std::uint64_t>(from) << 40) |
           (static_cast<std::uint64_t>(to) << 16) | tag;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    auto& expected = next_seq[stream_of(r)];
    if (r.seq != expected) return static_cast<long long>(i);
    ++expected;
    if (r.kind == EventKind::kSend) {
      ++sends[channel(r.node, r.peer, r.tag)];
    } else if (r.kind == EventKind::kRecv) {
      const auto ch = channel(r.peer, r.node, r.tag);
      if (recvs[ch] >= sends[ch]) return static_cast<long long>(i);
      ++recvs[ch];
    }
  }
  return -1;
}

}  // namespace prism::trace
