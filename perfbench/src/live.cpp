#include "live.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/clock.hpp"
#include "core/environment.hpp"
#include "core/federation.hpp"
#include "core/shm_link.hpp"
#include "core/socket_link.hpp"
#include "halo.hpp"
#include "obs/pipeline.hpp"
#include "percentile.hpp"
#include "probes.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace prism;
using Clock = std::chrono::steady_clock;
using trace::EventRecord;

// ---- workloads -------------------------------------------------------------
//
// Why these three (see perfbench/README.md for the full table):
//   halo_causal    — buffered LIS + shm + MISO causal ISM: the ISM drain and
//                    the causal reorder are the ceiling.
//   forward_online — forwarding LIS + AF_UNIX socket + SISO, no reorder, a
//                    stride-1 lineage observer: per-record wire and lineage
//                    costs dominate; bypasses the reorderer and LIS buffer.
//   federated_halo — the same reorderer used per shard, then at the root.

struct Spec {
  std::uint64_t seed = 0;
  core::EnvironmentConfig cfg;
  bool observer = false;  ///< PipelineObserver at the default stride
  /// Trace size: halo steps, or user records.
  std::uint32_t sat_size = 0, fixed_size = 0;
  double rate_rps = 0;    ///< open-loop rate of the fixed-rate legs

  /// The input of leg number `leg`.  Every leg replays its own trace, drawn
  /// from (seed, leg), so one run averages over many traces and its median
  /// does not hang on the quirks of a single one.
  Trace trace(bool fixed, std::uint64_t leg) const {
    const std::uint64_t sub = stats::Rng::hash_seed(seed, fixed, leg);
    const std::uint32_t size = fixed ? fixed_size : sat_size;
    return cfg.lis_style == core::LisStyle::kForwarding
               ? make_user_trace(cfg.nodes, size, sub)
               : make_halo_trace(cfg.nodes, size, 2, sub);
  }
};

Spec make_spec(const std::string& name, std::uint64_t seed) {
  Spec s;
  s.seed = seed;
  auto& c = s.cfg;
  if (name == "halo_causal") {
    c.nodes = 16;
    c.lis_style = core::LisStyle::kBuffered;
    c.flush_policy = core::FlushPolicyKind::kFof;
    c.local_buffer_capacity = 256;
    c.tp_flavor = core::TpFlavor::kShm;
    c.ism.input = core::InputConfig::kMiso;
    c.ism.causal_ordering = true;
    s.sat_size = 2500;   // steps: ~200k records
    s.fixed_size = 800;  // ~64k records, ~0.4 s
    s.rate_rps = 160'000;
  } else if (name == "forward_online") {
    c.nodes = 4;
    c.lis_style = core::LisStyle::kForwarding;
    c.tp_flavor = core::TpFlavor::kSocket;
    c.socket.domain = core::SocketDomain::kUnix;
    c.ism.input = core::InputConfig::kSiso;
    c.ism.causal_ordering = false;
    s.observer = true;
    s.sat_size = 60'000;    // records
    s.fixed_size = 16'000;  // ~0.4 s
    s.rate_rps = 40'000;
  } else {  // federated_halo
    c.nodes = 64;
    c.lis_style = core::LisStyle::kBuffered;
    c.flush_policy = core::FlushPolicyKind::kFof;
    c.local_buffer_capacity = 64;
    c.tp_flavor = core::TpFlavor::kPipe;
    c.ism.input = core::InputConfig::kMiso;
    c.ism.causal_ordering = true;
    c.federation.shards = 4;
    c.federation.root_tp = core::TpFlavor::kShm;
    s.sat_size = 625;    // steps: ~200k records
    s.fixed_size = 125;  // ~40k records, ~0.4 s
    s.rate_rps = 100'000;
  }
  return s;
}

// ---- one leg ---------------------------------------------------------------

struct Wire {
  std::uint64_t frames_sent = 0, frames_delivered = 0, bytes = 0, writes = 0;
  bool socket = false, present = false;
};

struct Leg {
  bool fixed = false;
  bool ok = true;
  std::string why;
  double setup_s = 0, wall_s = 0, drain_s = 0;
  double added_rss_mb = 0;  ///< resident set the leg added at its peak
  std::uint64_t offered = 0, delivered = 0;
  Percentiles latency_ns, record_ns, lateness_ns;  ///< fixed-rate legs
  double record_median_ns = 0;  ///< grouped median of the record() times
  core::LisStats lis;
  core::IsmStats ism;
  Wire wire;
  std::vector<core::AggregatorStats> aggs;
  bool observed = false;
  obs::LineageReport lineage;
  ProcUsage usage;  ///< process CPU and context switches during the run

  double delivered_rps() const { return wall_s > 0 ? delivered / wall_s : 0; }
};

core::Ism& root_ism(core::IntegratedEnvironment& e) { return e.ism(); }
core::Ism& root_ism(core::FederatedEnvironment& e) { return e.root_ism(); }
core::TransferProtocol& wire_tp(core::IntegratedEnvironment& e) {
  return e.tp();
}
core::TransferProtocol& wire_tp(core::FederatedEnvironment& e) {
  return e.root_tp();
}
void read_aggs(core::IntegratedEnvironment&, Leg&) {}
void read_aggs(core::FederatedEnvironment& e, Leg& leg) {
  for (std::uint32_t s = 0; s < e.shards(); ++s)
    leg.aggs.push_back(e.aggregator_stats(s));
}

Wire read_wire(core::TransferProtocol& tp) {
  Wire w;
  if (auto* st = tp.socket_transport()) {
    w.present = w.socket = true;
    for (std::size_t i = 0; i < st->link_count(); ++i) {
      const auto& l = st->link(i);
      w.frames_sent += l.frames_sent();
      w.frames_delivered += l.frames_delivered();
      w.bytes += l.bytes_sent();
      w.writes += l.writes();
    }
  } else if (auto* sh = tp.shm_transport()) {
    w.present = true;
    for (std::size_t i = 0; i < sh->link_count(); ++i) {
      const auto& l = sh->link(i);
      w.frames_sent += l.frames_sent();
      w.frames_delivered += l.frames_delivered();
      w.bytes += l.bytes_sent();
    }
  }
  return w;
}

struct GenOut {
  std::vector<double> record_ns, lateness_ns;
};

/// Replays one generator stream.  Closed loop: record() back to back.
/// Open loop: record j of generator g is due at t0 + (j*G + g)/rate and is
/// stamped with its due time, so a late generator shows as latency.  The
/// open-loop generator sleeps until each due time rather than spinning: a
/// spinning generator held a core the pipeline needed, and on a 4-core box
/// that tipped forward_online into a backlog in some legs and not others
/// (per-leg p50 from 40 us to 14 ms).
template <class Env>
void generate(Env& env, const std::vector<EventRecord>& stream,
              std::uint32_t g, std::uint32_t generators, double rate,
              const std::atomic<std::uint64_t>& start, GenOut& out) {
#ifdef __linux__
  // Sleeps end within microseconds of the due time, not the default 50 us
  // timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  // The k-th record() call, with a span (when tracing) around every 64th.
  const auto record = [&env](const EventRecord& r, std::size_t k) {
    if (k % 64 == 0) {
      spans::Span s("record");
      env.record(r);
    } else {
      env.record(r);
    }
  };
  std::uint64_t t0;
  while ((t0 = start.load(std::memory_order_acquire)) == 0)
    std::this_thread::yield();
  if (rate <= 0) {
    for (std::size_t j = 0; j < stream.size(); ++j) {
      EventRecord r = stream[j];
      r.timestamp = core::now_ns();
      record(r, j);
    }
    return;
  }
  const double period_ns = 1e9 / rate;
  out.record_ns.reserve(stream.size());
  out.lateness_ns.reserve(stream.size());
  for (std::size_t j = 0; j < stream.size(); ++j) {
    const auto due = t0 + static_cast<std::uint64_t>(
                              static_cast<double>(j * generators + g) *
                              period_ns);
    std::uint64_t now;
    while ((now = core::now_ns()) < due)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    EventRecord r = stream[j];
    r.timestamp = due;
    record(r, j);
    const std::uint64_t end = core::now_ns();
    out.record_ns.push_back(static_cast<double>(end - now));
    out.lateness_ns.push_back(static_cast<double>(now - due));
  }
}

template <class Env>
Leg run_leg_on(const Spec& spec, const Trace& trace, bool fixed,
               bool observer) {
  Leg leg;
  leg.fixed = fixed;
  leg.observed = observer;
  leg.offered = trace.records();
  RssWatch rss;
  // Declared before the environment, so it outlives the pipeline's threads.
  obs::PipelineObserver obs_sink;

  const auto t_setup = Clock::now();
  auto env = std::make_unique<Env>(spec.cfg);
  auto tool = std::make_shared<BenchTool>(
      trace.nodes, fixed ? trace.records() : 0);
  env->attach_tool(tool);
  if (observer) env->set_observer(&obs_sink);
  env->start();
  leg.setup_s = std::chrono::duration<double>(Clock::now() - t_setup).count();

  const auto generators = static_cast<std::uint32_t>(trace.streams.size());
  std::vector<GenOut> outs(generators);
  std::atomic<std::uint64_t> start{0};
  std::vector<std::thread> threads;
  for (std::uint32_t g = 0; g < generators; ++g)
    threads.emplace_back([&, g] {
      generate(*env, trace.streams[g], g, generators,
               fixed ? spec.rate_rps : 0, start, outs[g]);
    });
  const ProcUsage u0 = ProcUsage::now();
  // Open-loop legs start 1 ms out so every generator is waiting at t0.
  const std::uint64_t t0 = core::now_ns() + (fixed ? 1'000'000 : 0);
  start.store(t0, std::memory_order_release);
  for (auto& t : threads) t.join();
  const std::uint64_t t_gen = core::now_ns();
  {
    spans::Span s("flush_all");
    env->flush_all();
  }
  {
    spans::Span s("stop");
    env->stop();
  }
  const std::uint64_t t_end = core::now_ns();
  const ProcUsage u1 = ProcUsage::now();
  leg.usage.cpu_ns = u1.cpu_ns - u0.cpu_ns;
  leg.usage.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  leg.wall_s = static_cast<double>(t_end - std::min(t0, t_end)) * 1e-9;
  leg.drain_s = static_cast<double>(t_end - t_gen) * 1e-9;
  leg.delivered = tool->delivered();
  leg.added_rss_mb = rss.peak_mb() - rss.start_mb();

  if (fixed) {
    std::vector<double> rec, late;
    for (auto& o : outs) {
      rec.insert(rec.end(), o.record_ns.begin(), o.record_ns.end());
      late.insert(late.end(), o.lateness_ns.begin(), o.lateness_ns.end());
    }
    leg.record_median_ns = grouped_median(rec);
    leg.record_ns = percentiles(std::move(rec));
    leg.lateness_ns = percentiles(std::move(late));
    leg.latency_ns = percentiles(tool->latency_ns());
  }

  leg.lis = env->total_lis_stats();
  leg.ism = root_ism(*env).stats();
  leg.wire = read_wire(wire_tp(*env));
  read_aggs(*env, leg);
  if (observer) leg.lineage = obs_sink.lineage.report();

  auto fail = [&leg](const std::string& why) {
    if (leg.ok) leg.why = why;
    leg.ok = false;
  };
  if (!tool->causal_ok()) fail("the tool saw a causal-order violation");
  if (leg.delivered != leg.offered)
    fail("delivered " + std::to_string(leg.delivered) + " of " +
         std::to_string(leg.offered) + " offered");
  if (!leg.lis.conserved()) fail("LIS ledger not conserved");
  if (!leg.ism.conserved()) fail("ISM ledger not conserved");
  for (const auto& a : leg.aggs)
    if (!a.conserved()) fail("aggregator ledger not conserved");
  if (const auto d = env->degradation(); d.degraded())
    fail("fault-free run degraded: " + d.to_string());
  if (leg.wire.frames_sent != leg.wire.frames_delivered)
    fail("wire frames sent != delivered");
  if (observer && (!leg.lineage.conserved() || leg.lineage.in_flight != 0))
    fail("lineage not conserved or records still in flight");
  return leg;
}

/// Runs leg number `index`.  Spans are recorded when spans::enabled().
Leg run_leg(const Spec& spec, std::uint64_t index, bool fixed, bool observer) {
  const Trace trace = spec.trace(fixed, index);
  spans::Span s(fixed ? "leg.fixed_rate" : "leg.saturation");
  return spec.cfg.federation.enabled()
             ? run_leg_on<core::FederatedEnvironment>(spec, trace, fixed,
                                                      observer)
             : run_leg_on<core::IntegratedEnvironment>(spec, trace, fixed,
                                                       observer);
}

// ---- reduction -------------------------------------------------------------

template <class F>
double quantile_of(const std::vector<Leg>& legs, double q, F f) {
  std::vector<double> v;
  for (const auto& l : legs) v.push_back(f(l));
  return quantile(v, q);
}

template <class F>
double median_of(const std::vector<Leg>& legs, F f) {
  return quantile_of(legs, 0.5, f);
}

/// Open-loop latency is reported as the 10th percentile over fixed-rate legs
/// of each leg's own percentile.  Interference from outside the program only
/// adds latency: on a busy VM host, thread wake-ups (the generator's
/// included) stretch to milliseconds for seconds at a time, and up to 70% of
/// a run's forward_online legs were hit (per-leg p90 from 75 us to 10 ms).
/// A median over legs then swings with the host, while the low percentile
/// still moves with every leg's latency.  The per-layer
/// tool.deliver_p50_median_us keeps the median for comparison.
constexpr double kLatencyLegQuantile = 0.1;

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace

bool is_live_workload(const std::string& name) {
  return name == "halo_causal" || name == "forward_online" ||
         name == "federated_halo";
}

RunResult run_live(const std::string& name, const RunOptions& opts) {
  const Spec spec = make_spec(name, opts.seed);
  RunResult res;
  auto absorb = [&res](Leg&& leg, std::vector<Leg>* into) {
    std::printf("  leg %-10s %9.0f rec/s  setup %7.3f ms  drain %8.3f ms  "
                "rss +%5.1f MiB",
                leg.fixed ? "fixed-rate" : "saturation", leg.delivered_rps(),
                leg.setup_s * 1e3, leg.drain_s * 1e3, leg.added_rss_mb);
    if (leg.fixed)
      std::printf("  latency p50 %.1f p90 %.1f us  late p50 %.1f p90 %.1f us",
                  leg.latency_ns.p50 * 1e-3, leg.latency_ns.p90 * 1e-3,
                  leg.lateness_ns.p50 * 1e-3, leg.lateness_ns.p90 * 1e-3);
    std::printf("\n");
    res.attempted += leg.offered;
    if (!leg.ok) {
      res.failed += leg.offered;
      res.fail(leg.why);
    }
    if (into) into->push_back(std::move(leg));
  };

  // The process before any environment exists: code, libraries, no inputs.
  const double base_rss_mb = trimmed_resident_mb();
  // Warm-up: page in the code, the allocator's arenas and the batch pool.
  // Checked like every leg, but not measured.
  std::uint64_t index = 0;  // legs so far; picks each leg's trace
  absorb(run_leg(spec, index++, false, spec.observer), nullptr);

  std::vector<Leg> sat, fixed, sat_traced, sat_toggled, fixed_traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  do {
    absorb(run_leg(spec, index++, false, spec.observer), &sat);
    if (!opts.trace) {
      absorb(run_leg(spec, index++, true, spec.observer), &fixed);
      continue;
    }
    spans::enable(true);
    absorb(run_leg(spec, index++, false, spec.observer), &sat_traced);
    absorb(run_leg(spec, index++, true, spec.observer), &fixed_traced);
    spans::enable(false);
    absorb(run_leg(spec, index++, false, !spec.observer), &sat_toggled);
  } while (Clock::now() < deadline);

  std::vector<Leg> all;
  for (auto* v : {&sat, &fixed, &sat_traced, &sat_toggled, &fixed_traced})
    all.insert(all.end(), v->begin(), v->end());

  if (!opts.trace) {
    res.add("delivered_rps",
            median_of(sat, [](const Leg& l) { return l.delivered_rps(); }));
    res.add("deliver_p50_us",
            quantile_of(fixed, kLatencyLegQuantile,
                        [](const Leg& l) { return l.latency_ns.p50; }) *
                1e-3);
    res.add("deliver_p90_us",
            quantile_of(fixed, kLatencyLegQuantile,
                        [](const Leg& l) { return l.latency_ns.p90; }) *
                1e-3);
    res.add("record_p50_ns",
            median_of(fixed, [](const Leg& l) { return l.record_median_ns; }));
    res.add("delivered_ratio",
            ratio(static_cast<double>(res.attempted - res.failed),
                  static_cast<double>(res.attempted)));
    // One environment's peak: the process before any environment, plus what
    // the median saturation leg added.  Memory the allocator keeps from
    // earlier legs' threads is left out; proc.rss_retained_mb reports it.
    res.add("peak_rss_mb",
            base_rss_mb +
                median_of(sat, [](const Leg& l) { return l.added_rss_mb; }));
    res.add("setup_s", median_of(all, [](const Leg& l) { return l.setup_s; }));
    res.add("model_reps_per_s",
            median_of(sat,
                      [](const Leg& l) { return 1.0 / (l.setup_s + l.wall_s); }));
    return res;
  }

  // ---- per-layer (traced run) ----------------------------------------------
  const std::vector<Leg>& fx = fixed_traced;
  const std::vector<Leg>& st = sat_traced;
  const double rps_untraced =
      median_of(sat, [](const Leg& l) { return l.delivered_rps(); });
  const double rps_traced =
      median_of(st, [](const Leg& l) { return l.delivered_rps(); });
  const double rps_toggled =
      median_of(sat_toggled, [](const Leg& l) { return l.delivered_rps(); });

  res.add("trace.overhead_ratio", ratio(rps_untraced, rps_traced));
  res.add("lost_ratio",
          ratio(static_cast<double>(res.failed),
                static_cast<double>(res.attempted)));
  res.add("gen.lateness_p50_us",
          median_of(fx, [](const Leg& l) { return l.lateness_ns.p50; }) * 1e-3);

  res.add("lis.record_p99_ns",
          median_of(fx, [](const Leg& l) { return l.record_ns.p99; }));
  res.add("lis.records_per_flush", median_of(st, [](const Leg& l) {
            return ratio(static_cast<double>(l.lis.records_forwarded),
                         static_cast<double>(l.lis.flushes));
          }));
  res.add("lis.flush_ns_per_record", median_of(st, [](const Leg& l) {
            return ratio(static_cast<double>(l.lis.flush_time_ns),
                         static_cast<double>(l.lis.records_forwarded));
          }));
  std::uint64_t dropped = 0;
  for (const auto& l : all) dropped += l.lis.dropped;
  res.add("lis.dropped", static_cast<double>(dropped));

  res.add("tp.frames_sent", median_of(st, [](const Leg& l) {
            return static_cast<double>(l.wire.frames_sent);
          }));
  res.add("tp.frames_delivered", median_of(st, [](const Leg& l) {
            return static_cast<double>(l.wire.frames_delivered);
          }));
  res.add("tp.bytes_per_record", median_of(st, [](const Leg& l) {
            return ratio(static_cast<double>(l.wire.bytes),
                         static_cast<double>(l.offered));
          }));
  res.add("tp.coalesce_factor", median_of(st, [](const Leg& l) {
            return l.wire.socket
                       ? ratio(static_cast<double>(l.wire.frames_sent),
                               static_cast<double>(l.wire.writes))
                       : 0.0;
          }));
  // The isolated replays use the batch size the wire really carried.
  const double frame_records = median_of(st, [](const Leg& l) {
    return ratio(static_cast<double>(l.offered),
                 static_cast<double>(l.wire.present ? l.wire.frames_sent
                                                    : l.lis.flushes));
  });
  const auto batch = static_cast<std::size_t>(std::max(1.0, frame_records));
  const std::size_t frames = std::max<std::size_t>(2'000, 100'000 / batch);
  {
    spans::Span s("replay.tp");
    std::vector<double> shm, sock, link, chan;
    for (int i = 0; i < 3; ++i) {
      shm.push_back(shm_frame_ns(batch, frames));
      sock.push_back(socket_frame_ns(batch, frames));
      link.push_back(socket_link_frame_ns(batch, frames));
      chan.push_back(channel_frame_ns(batch, frames));
    }
    res.add("tp.shm_frame_ns", median(shm));
    res.add("tp.socket_frame_ns", median(sock));
    res.add("tp.socket_link_frame_ns", median(link));
    res.add("tp.channel_frame_ns", median(chan));
  }

  res.add("ism.drain_s", median_of(st, [](const Leg& l) { return l.drain_s; }));
  res.add("ism.records_per_batch", median_of(st, [](const Leg& l) {
            return ratio(static_cast<double>(l.ism.records_received),
                         static_cast<double>(l.ism.batches_received));
          }));
  res.add("ism.hold_back_ratio",
          median_of(st, [](const Leg& l) { return l.ism.hold_back_ratio; }));
  res.add("ism.proc_latency_p95_us", median_of(fx, [](const Leg& l) {
            return l.ism.processing_latency_p95_ns * 1e-3;
          }));
  res.add("ism.dispatch_latency_mean_us", median_of(fx, [](const Leg& l) {
            return l.ism.dispatch_latency_ns.mean() * 1e-3;
          }));

  {
    spans::Span s("replay.causal");
    const auto arrivals = interleave(
        spec.trace(false, 0), spec.cfg.lis_style == core::LisStyle::kBuffered
                      ? spec.cfg.local_buffer_capacity
                      : 1,
        stats::Rng::hash_seed(opts.seed, 3));
    std::vector<double> ns;
    std::size_t peak = 0;
    for (int i = 0; i < 3; ++i) {
      const auto r = replay_offers(arrivals);
      if (!r.all_released) res.fail("causal replay stranded records");
      ns.push_back(r.offer_ns);
      peak = r.peak_held;
    }
    res.add("causal.offer_ns", median(ns));
    res.add("causal.peak_held", static_cast<double>(peak));
  }

  res.add("tool.consume_ns", spans::stats("tool.consume").mean_ns);
  res.add("tool.deliver_p99_us",
          median_of(fx, [](const Leg& l) { return l.latency_ns.p99; }) * 1e-3);
  res.add("tool.deliver_p50_median_us",
          median_of(fx, [](const Leg& l) { return l.latency_ns.p50; }) * 1e-3);

  res.add("agg.records_per_uplink_batch", median_of(st, [](const Leg& l) {
            std::uint64_t rec = 0, batches = 0;
            for (const auto& a : l.aggs) {
              rec += a.records_forwarded;
              batches += a.batches_forwarded;
            }
            return ratio(static_cast<double>(rec),
                         static_cast<double>(batches));
          }));
  res.add("agg.hold_back_ratio", median_of(st, [](const Leg& l) {
            std::uint64_t held = 0, rec = 0;
            for (const auto& a : l.aggs) {
              held += a.held_back;
              rec += a.records_received;
            }
            return ratio(static_cast<double>(held), static_cast<double>(rec));
          }));
  res.add("agg.shard_skew", median_of(st, [](const Leg& l) {
            if (l.aggs.empty()) return 0.0;
            double total = 0, most = 0;
            for (const auto& a : l.aggs) {
              total += static_cast<double>(a.records_received);
              most = std::max(most, static_cast<double>(a.records_received));
            }
            return ratio(most, total / static_cast<double>(l.aggs.size()));
          }));

  // Observer off / observer on, whichever of the two is this workload's
  // default.
  res.add("obs.lineage_cost_ratio",
          spec.observer ? ratio(rps_toggled, rps_untraced)
                        : ratio(rps_untraced, rps_toggled));
  std::uint64_t in_flight = 0;
  for (const auto& l : all)
    if (l.observed) in_flight += l.lineage.in_flight;
  res.add("obs.lineage_in_flight", static_cast<double>(in_flight));

  res.add("proc.rss_retained_mb", trimmed_resident_mb() - base_rss_mb);
  res.add("proc.cpu_ns_per_record", median_of(sat, [](const Leg& l) {
            return ratio(static_cast<double>(l.usage.cpu_ns),
                         static_cast<double>(l.offered));
          }));
  res.add("proc.ctx_switches_per_krec", median_of(sat, [](const Leg& l) {
            return ratio(1e3 * static_cast<double>(l.usage.ctx_switches),
                         static_cast<double>(l.offered));
          }));
  return res;
}

}  // namespace perfbench
