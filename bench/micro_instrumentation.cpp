// Micro-benchmarks of the live instrumentation system's hot paths
// (google-benchmark): probe event emission, trace-buffer append/drain, the
// buffered LIS's record() (the capture layer), channel operations, k-way
// merging, causal reordering, perturbation compensation, and the
// simulation engine's calendar (schedule/step, cancel churn, periodic
// rescheduling).  These quantify the per-event costs
// the models parameterize and the cost of running the models themselves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/io_loop.hpp"
#include "core/lis.hpp"
#include "core/sensor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "stats/rng.hpp"
#include "trace/buffer.hpp"
#include "trace/causal.hpp"
#include "trace/merge.hpp"
#include "trace/perturbation.hpp"

using namespace prism;

namespace {

void BM_ProbeEventEnabled(benchmark::State& state) {
  std::uint64_t sink_count = 0;
  core::Probe probe("bench", 1, 0, 0,
                    [&](trace::EventRecord) { ++sink_count; });
  for (auto _ : state) probe.event(42);
  benchmark::DoNotOptimize(sink_count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeEventEnabled);

void BM_ProbeEventDisabled(benchmark::State& state) {
  // The cost of instrumentation that W3 has dynamically removed.
  core::Probe probe("bench", 1, 0, 0, [](trace::EventRecord) {}, false);
  for (auto _ : state) probe.event(42);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeEventDisabled);

void BM_TraceBufferAppend(benchmark::State& state) {
  trace::TraceBuffer buf(static_cast<std::size_t>(state.range(0)));
  trace::EventRecord r;
  for (auto _ : state) {
    if (buf.full()) {
      auto drained = buf.drain();
      benchmark::DoNotOptimize(drained);
    }
    buf.append(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceBufferAppend)->Arg(64)->Arg(1024)->Arg(16384);

/// Four FOF BufferedLis of capacity 256 (one per benchmark thread) plus one
/// that every thread shares, all shipping into one ingress link that a
/// consumer thread drains, handing each batch's storage back to the
/// BatchArena as the ISM does.  Built once, on first use, and kept for the
/// process lifetime.
struct LisRig {
  static constexpr std::size_t kPerThread = 4;
  core::DataLink link{64};
  std::vector<std::unique_ptr<core::BufferedLis>> lises;
  std::thread consumer;

  LisRig() {
    for (std::uint32_t n = 0; n <= kPerThread; ++n)
      lises.push_back(std::make_unique<core::BufferedLis>(
          n, 256, std::make_unique<core::FlushOnFill>(), link));
    consumer = std::thread([this] {
      while (auto m = link.pop())
        if (auto* b = std::get_if<core::DataBatch>(&*m))
          core::BatchArena::instance().release(std::move(b->records));
    });
  }
  ~LisRig() {
    for (auto& l : lises) l->stop();
    link.close();
    consumer.join();
  }
  static LisRig& instance() {
    static LisRig rig;
    return rig;
  }
};

/// The capture layer: one record() into a buffered LIS, flushes included
/// (the application pays for them under PICL semantics).  Arg 0: one LIS per
/// thread; arg 1: one LIS shared by all threads.
void BM_BufferedLisRecord(benchmark::State& state) {
  const bool shared = state.range(0) == 1;
  auto& rig = LisRig::instance();
  const auto idx = shared ? LisRig::kPerThread
                          : static_cast<std::size_t>(state.thread_index());
  core::BufferedLis& lis = *rig.lises[idx];
  trace::EventRecord r;
  r.node = static_cast<std::uint32_t>(idx);
  r.process = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    lis.record(r);
    ++r.seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferedLisRecord)
    ->ArgName("shared")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_ChannelPushPop(benchmark::State& state) {
  core::Channel<trace::EventRecord> ch(1024);
  trace::EventRecord r;
  for (auto _ : state) {
    ch.try_push(r);
    benchmark::DoNotOptimize(ch.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop);

void BM_KWayMerge(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t per = 20000 / k;
  std::vector<std::vector<trace::EventRecord>> streams(k);
  std::uint64_t ts = 0;
  for (std::size_t i = 0; i < per; ++i)
    for (std::size_t s = 0; s < k; ++s) {
      trace::EventRecord r;
      r.timestamp = ts++;
      r.node = static_cast<std::uint32_t>(s);
      streams[s].push_back(r);
    }
  for (auto _ : state) {
    auto merged = trace::merge_sorted(streams);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * per * k);
}
BENCHMARK(BM_KWayMerge)->Arg(2)->Arg(8)->Arg(32);

void BM_CausalReordererInOrder(benchmark::State& state) {
  // Best case: already-ordered stream.
  for (auto _ : state) {
    state.PauseTiming();
    std::uint64_t released = 0;
    trace::CausalReorderer r([&](const trace::EventRecord&) { ++released; });
    std::vector<trace::EventRecord> events(8192);
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].node = static_cast<std::uint32_t>(i % 4);
      events[i].seq = i / 4;
    }
    state.ResumeTiming();
    for (const auto& e : events) r.offer(e);
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CausalReordererInOrder);

void BM_CausalReordererShuffled(benchmark::State& state) {
  // Worst-ish case: fully shuffled arrivals hold back most records, which
  // then release in long per-stream chains.
  stats::Rng rng(7);
  std::vector<trace::EventRecord> events(4096);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].node = static_cast<std::uint32_t>(i % 4);
    events[i].seq = i / 4;
  }
  for (std::size_t i = events.size(); i > 1; --i)
    std::swap(events[i - 1], events[rng.next_below(i)]);
  for (auto _ : state) {
    std::uint64_t released = 0;
    trace::CausalReorderer r([&](const trace::EventRecord&) { ++released; });
    for (const auto& e : events) r.offer(e);
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_CausalReordererShuffled);

// A 1-D periodic halo exchange over `nodes` nodes, arriving the way the MISO
// ISM and the aggregators see it: per-node chunks of `chunk` records (one
// LIS flush) from nodes picked at random.  Each step a node sends to both
// neighbours and then receives from both, so most recvs of a chunk wait for
// a neighbour's chunk.  The trace size is fixed, so ns/record should stay
// flat as the stream count grows.
std::vector<trace::EventRecord> halo_arrivals(std::uint32_t nodes,
                                              std::size_t chunk) {
  constexpr std::size_t kRecords = 1 << 16;
  const std::size_t steps = kRecords / (4 * std::size_t{nodes});
  std::vector<std::vector<trace::EventRecord>> per_node(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const std::uint32_t left = (n + nodes - 1) % nodes;
    const std::uint32_t right = (n + 1) % nodes;
    auto& out = per_node[n];
    auto push = [&](trace::EventKind kind, std::uint32_t peer,
                    std::uint16_t tag) {
      trace::EventRecord r;
      r.node = n;
      r.kind = kind;
      r.peer = peer;
      r.tag = tag;
      r.seq = out.size();
      out.push_back(r);
    };
    for (std::size_t s = 0; s < steps; ++s) {
      push(trace::EventKind::kSend, left, 0);
      push(trace::EventKind::kSend, right, 1);
      push(trace::EventKind::kRecv, right, 0);
      push(trace::EventKind::kRecv, left, 1);
    }
  }
  stats::Rng rng(11);
  std::vector<std::size_t> pos(nodes, 0);
  std::vector<std::uint32_t> live(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) live[n] = n;
  std::vector<trace::EventRecord> arrivals;
  while (!live.empty()) {
    const std::size_t k = rng.next_below(live.size());
    const auto& src = per_node[live[k]];
    auto& at = pos[live[k]];
    const std::size_t end = std::min(at + chunk, src.size());
    arrivals.insert(arrivals.end(), src.begin() + static_cast<long>(at),
                    src.begin() + static_cast<long>(end));
    at = end;
    if (at == src.size()) {
      live[k] = live.back();
      live.pop_back();
    }
  }
  return arrivals;
}

void BM_CausalReordererHalo(benchmark::State& state) {
  const auto arrivals =
      halo_arrivals(static_cast<std::uint32_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::uint64_t released = 0;
    trace::CausalReorderer r([&](const trace::EventRecord&) { ++released; });
    for (const auto& e : arrivals) r.offer(e);
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arrivals.size()));
}
BENCHMARK(BM_CausalReordererHalo)->ArgsProduct({{16, 64}, {64, 256}});

void BM_PerturbationCompensate(benchmark::State& state) {
  std::vector<trace::EventRecord> clean(8192);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    clean[i].node = static_cast<std::uint32_t>(i % 8);
    clean[i].seq = i / 8;
    clean[i].timestamp = 1000 * (i / 8) + (i % 8);
  }
  trace::PerturbationModel model;
  model.per_event_overhead = 50;
  const auto perturbed = trace::apply_perturbation(clean, model);
  for (auto _ : state) {
    auto copy = perturbed;
    auto rep = trace::compensate(copy, model);
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(state.iterations() * clean.size());
}
BENCHMARK(BM_PerturbationCompensate);

void BM_EngineScheduleStep(benchmark::State& state) {
  // The simulator's core loop: fill the calendar with randomly-timed events,
  // then drain it in time order.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine e;
    stats::Rng rng(42);
    state.ResumeTiming();
    int sink = 0;
    for (int i = 0; i < n; ++i)
      e.schedule_at(rng.next_double() * 1e6, [&sink] { ++sink; });
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleStep)->Arg(1024)->Arg(16384);

void BM_EngineScheduleCancel(benchmark::State& state) {
  // The timeout pattern: nearly every scheduled event is cancelled before it
  // fires.  The slot-vector calendar makes cancel O(1) and keeps the heap
  // compacted, where the seed implementation grew a cancelled-id set.
  sim::Engine e;
  double t = 1.0;
  for (auto _ : state) {
    auto h = e.schedule_at(t, [] {});
    benchmark::DoNotOptimize(e.cancel(h));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScheduleCancel);

void BM_EnginePeriodicReschedule(benchmark::State& state) {
  // Periodic event re-armed via its handle: the callback state is moved, not
  // re-allocated, each period.
  const auto ticks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine e;
    int count = 0;
    sim::EventHandle h;
    h = e.schedule_at(1.0, [&] {
      if (++count < ticks) h = e.reschedule(h, e.now() + 1.0);
    });
    state.ResumeTiming();
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * ticks);
}
BENCHMARK(BM_EnginePeriodicReschedule)->Arg(16384);

void BM_EnginePeriodicRespawn(benchmark::State& state) {
  // The same periodic pattern written the pre-reschedule way (a fresh
  // std::function every period), for comparison against the fast path.
  const auto ticks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine e;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < ticks) e.schedule_after(1.0, tick);
    };
    e.schedule_at(1.0, tick);
    state.ResumeTiming();
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * ticks);
}
BENCHMARK(BM_EnginePeriodicRespawn)->Arg(16384);

// ---- obs_overhead: the self-telemetry layer measuring itself -------------
//
// BM_EngineScheduleStep above doubles as the cross-build anchor for the
// kill switch: built with -DPRISM_OBS=OFF its hook macros compile away, and
// the ISSUE's acceptance bar is that the OFF build stays within 2% of a
// build that never had probes.

void BM_ObsCounterAdd(benchmark::State& state) {
  // One sharded counter hammered from N threads: with per-thread shards the
  // multithreaded rate should scale, not collapse onto one cache line.
  static obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd)->Threads(1)->Threads(4);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram hist(obs::Histogram::latency_bounds_ns());
  double v = 1.0;
  for (auto _ : state) {
    hist.record(v);
    v = v < 1e9 ? v * 1.1 : 1.0;  // walk the buckets
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsMacroCountHit(benchmark::State& state) {
  // The macro path the engine and pipeline hooks use: function-local static
  // handle + one relaxed fetch_add.  In a -DPRISM_OBS=OFF build this loop is
  // empty — compare against BM_ObsBaselineLoop there.
  for (auto _ : state) {
    PRISM_OBS_COUNT("bench.obs.macro_hit");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsMacroCountHit);

void BM_ObsBaselineLoop(benchmark::State& state) {
  // Empty-loop baseline: what BM_ObsMacroCountHit must cost when the layer
  // is compiled out.
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsBaselineLoop);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // Tracer off (the default): a SpanScope is one relaxed load and a branch.
  obs::Tracer::instance().set_enabled(false);
  for (auto _ : state) {
    obs::SpanScope span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  // Tracer on: two clock reads plus a ring push under a per-thread mutex.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  for (auto _ : state) {
    obs::SpanScope span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  tracer.set_enabled(false);
  tracer.clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace

BENCHMARK_MAIN();
