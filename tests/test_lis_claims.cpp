// The buffered LIS's lock-free claim path under concurrency (DESIGN.md §18):
// record() racing flush(), stats() and stop(); overshooting claims while a
// flush is stuck; FAOF overshoot while a gang flush runs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/lis.hpp"

namespace prism::core {
namespace {

trace::EventRecord rec(std::uint32_t node, std::uint32_t process,
                       std::uint64_t seq) {
  trace::EventRecord r;
  r.node = node;
  r.process = process;
  r.seq = seq;
  return r;
}

TEST(LisClaims, RecordRacingFlushStatsAndStopShipsEachRecordOnce) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kAfterStop = 100;  // records offered after stop()
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  DataLink link(4);
  BufferedLis lis(0, 8, std::make_unique<FlushOnFill>(), link);

  std::vector<trace::EventRecord> shipped;  // in arrival order
  std::thread drainer([&] {
    while (auto m = link.pop())
      if (auto* b = std::get_if<DataBatch>(&*m))
        shipped.insert(shipped.end(), b->records.begin(), b->records.end());
  });

  // Each producer records until it sees stop() has returned, then offers
  // kAfterStop more; first_after[p] is the seq of its first such record.
  std::atomic<bool> stopped{false};
  std::array<std::uint64_t, kProducers> first_after{};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      std::uint64_t after = kNone;
      for (std::uint64_t i = 0; after == kNone || i < after + kAfterStop;
           ++i) {
        if (after == kNone && stopped.load(std::memory_order_acquire))
          after = i;
        lis.record(rec(0, p, i));
      }
      first_after[p] = after;
    });

  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0, bad = 0;
  std::thread flusher([&] {
    std::uint64_t last_in = 0;
    while (!done.load(std::memory_order_relaxed)) {
      lis.flush();
      const LisStats s = lis.stats();
      ++snapshots;
      if (!s.conserved() || s.records_in() < last_in) ++bad;
      last_in = s.records_in();
    }
  });

  while (lis.stats().records_in() < 2000) std::this_thread::yield();
  lis.stop();
  stopped.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_relaxed);
  flusher.join();
  link.close();
  drainer.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(bad, 0u) << "a mid-run snapshot was not conserved";
  const LisStats s = lis.stats();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.buffered, 0u);
  EXPECT_EQ(s.lost_send, 0u);
  EXPECT_GE(s.recorded, 2000u);
  // Counted == shipped: nothing is counted that did not ship.
  EXPECT_EQ(s.recorded, shipped.size());
  EXPECT_EQ(s.records_forwarded, shipped.size());

  // Exactly once and in per-process order: each process's shipped seqs
  // run 0, 1, 2, ... with no gap or repeat.
  std::array<std::uint64_t, kProducers> next{};
  for (const auto& r : shipped) {
    ASSERT_LT(r.process, kProducers);
    ASSERT_EQ(r.seq, next[r.process]) << "process " << r.process;
    ++next[r.process];
  }
  // Nothing offered after stop() returned was shipped.
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    ASSERT_NE(first_after[p], kNone);
    EXPECT_LE(next[p], first_after[p]) << "process " << p;
  }
}

TEST(LisClaims, OvershootBlocksBehindAStuckFlushInsteadOfDropping) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 1000;
  DataLink link(1);  // holds one batch, and nobody drains it
  BufferedLis lis(0, 8, std::make_unique<FlushOnFill>(), link);
  std::atomic<std::uint64_t> returned{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        lis.record(rec(0, p, i));
        returned.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // The first buffer ships and fills the link.  The second buffer's flush
  // blocks in push, holding mu_ with the claim word closed, so every later
  // record() waits for it: 8 + 7 records return, and no more.
  while (returned.load() < 15) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(returned.load(), 15u);

  link.close();  // the stuck push fails: its batch is lost_send, not dropped
  for (auto& t : producers) t.join();
  lis.stop();
  const LisStats s = lis.stats();
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.recorded, kProducers * kPerProducer);
  EXPECT_EQ(s.records_forwarded, 8u);
  EXPECT_EQ(s.lost_send, kProducers * kPerProducer - 8);
  EXPECT_TRUE(s.conserved());
}

TEST(LisClaims, FaofOvershootDropsWhileAGangFlushRuns) {
  FlushCoordinator coord;
  DataLink stuck(1), link(16);
  // Full, so b's flush blocks (any message fills it).
  ASSERT_TRUE(stuck.push(ControlMessage{ControlKind::kShutdown, 0, 0}));
  // b attaches first, so the gang flush reaches it before a.
  BufferedLis b(1, 2, std::make_unique<FlushAllOnFill>(), stuck, &coord);
  BufferedLis a(0, 2, std::make_unique<FlushAllOnFill>(), link, &coord);
  std::thread filler([&] {
    b.record(rec(1, 0, 0));
    b.record(rec(1, 0, 1));  // fills b: gang flush, stuck in b's push
  });
  while (!coord.in_progress()) std::this_thread::yield();

  // a fills while the gang flush runs: its own flush_all() folds into the
  // running one, and every further record overshoots a full buffer.
  for (std::uint64_t i = 0; i < 5; ++i) a.record(rec(0, 0, i));
  LisStats s = a.stats();
  EXPECT_EQ(s.recorded, 2u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_EQ(s.buffered, 2u);
  EXPECT_TRUE(s.conserved());

  stuck.close();  // unstick: b's batch is lost, then the gang flush ships a
  filler.join();
  s = a.stats();
  EXPECT_EQ(s.records_forwarded, 2u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_EQ(s.buffered, 0u);
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(b.stats().lost_send, 2u);
  EXPECT_EQ(coord.gang_flushes(), 1u);
}

}  // namespace
}  // namespace prism::core
