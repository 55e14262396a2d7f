#include "model.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "paradyn/rocc_model.hpp"
#include "percentile.hpp"
#include "picl/flush_sim.hpp"
#include "probes.hpp"
#include "sim/replication.hpp"
#include "sim/thread_pool.hpp"
#include "spans.hpp"
#include "vista/ism_model.hpp"

namespace perfbench {
namespace {

using namespace prism;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Replication counts per scenario.  fig05 has 30 coarse scenarios, fig09
/// and fig11 a few fine ones, so the pool sees both task grains.
struct Reps {
  unsigned fig05 = 4, fig09 = 24, fig11 = 12;
};

/// One sweep's outcome: a fingerprint of every response (bit-identical for
/// any worker count) and each replication's wall time.
struct SweepOut {
  double fingerprint = 0;
  unsigned replications = 0;
  std::vector<double> rep_ns;
  double wall_s = 0;
  std::uint64_t events = 0, busy_ns = 0, idle_ns = 0, tasks = 0;
  double queue_wait_ns = 0;
};

std::uint64_t counter(const obs::MetricsSnapshot& s, const char* name) {
  const auto* c = s.counter(name);
  return c ? c->value : 0;
}

/// rep(replications, scenario_tag, model): one replicate() call.
using Rep = std::function<void(
    unsigned, std::uint64_t, const std::function<sim::Responses(stats::Rng&)>&)>;

/// Runs `body`, which calls replicate() through the Rep it is given, and
/// reads the engine and pool counters it moved.
SweepOut sweep(const char* span_name, const std::function<void(const Rep&)>& body,
               std::uint64_t seed, unsigned threads) {
  spans::Span span(span_name);
  SweepOut out;
  std::mutex mu;
  sim::ReplicateOptions opts;
  opts.threads = threads;
  auto rep = [&](unsigned reps, std::uint64_t tag,
                 const std::function<sim::Responses(stats::Rng&)>& model) {
    const auto rr = sim::replicate(
        reps, seed, tag,
        [&](stats::Rng& rng) {
          const auto t0 = Clock::now();
          auto responses = model(rng);
          const double ns =
              std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
          std::lock_guard lk(mu);
          out.rep_ns.push_back(ns);
          return responses;
        },
        opts);
    for (const auto& m : rr.metrics()) out.fingerprint += rr.summary(m).mean();
    out.replications += rr.replications();
  };
  const auto s0 = obs::Registry::instance().snapshot();
  const auto t0 = Clock::now();
  body(rep);
  out.wall_s = seconds_since(t0);
  const auto s1 = obs::Registry::instance().snapshot();
  out.events = counter(s1, "sim.engine.events_executed") -
               counter(s0, "sim.engine.events_executed");
  out.busy_ns = counter(s1, "sim.pool.worker.busy_ns") -
                counter(s0, "sim.pool.worker.busy_ns");
  out.idle_ns = counter(s1, "sim.pool.worker.idle_ns") -
                counter(s0, "sim.pool.worker.idle_ns");
  const auto* h0 = s0.histogram("sim.pool.queue_wait_ns");
  const auto* h1 = s1.histogram("sim.pool.queue_wait_ns");
  if (h1) {
    out.queue_wait_ns = h1->sum - (h0 ? h0->sum : 0);
    out.tasks = h1->count - (h0 ? h0->count : 0);
  }
  return out;
}

/// Fig. 5: PICL FOF vs FAOF flushing frequency over buffer size and rate.
SweepOut fig05(std::uint64_t seed, unsigned threads, unsigned reps) {
  return sweep("sweep.fig05", [reps](const Rep& rep) {
    const std::vector<double> alphas{0.0008, 0.007, 2.0};
    for (std::size_t a = 0; a < alphas.size(); ++a)
      for (unsigned l = 10; l <= 100; l += 10) {
        picl::PiclModelParams p;
        p.buffer_capacity = l;
        p.arrival_rate = alphas[a];
        p.nodes = 8;
        rep(reps, 100 * a + l, [p](stats::Rng& rng) -> sim::Responses {
          const auto fof = picl::simulate_fof(p, 400, rng.split());
          const auto faof = picl::simulate_faof(p, 250, rng.split());
          return {{"fof_freq", fof.flushing_frequency},
                  {"faof_freq", faof.flushing_frequency},
                  {"fof_stop", fof.stopping_time.mean()}};
        });
      }
  }, seed, threads);
}

/// Fig. 9(a): Paradyn daemon interference vs sampling period (ROCC).
SweepOut fig09(std::uint64_t seed, unsigned threads, unsigned reps) {
  return sweep("sweep.fig09", [reps](const Rep& rep) {
    for (const double period : {50.0, 200.0, 500.0}) {
      paradyn::ParadynRoccParams p;
      p.horizon_ms = 20'000;
      p.sampling_period_ms = period;
      rep(reps, static_cast<std::uint64_t>(period * 1000),
          [p](stats::Rng& rng) -> sim::Responses {
            const auto m = paradyn::run_paradyn_rocc(p, rng);
            return {{"interference", m.pd_interference_ms},
                    {"utilization_pct", m.pd_cpu_utilization_pct},
                    {"queueing_delay", m.mean_cpu_queueing_delay_ms}};
          });
    }
  }, seed, threads);
}

/// Fig. 11: Vista ISM latency and buffer length, SISO vs MISO, over the
/// inter-arrival time.
SweepOut fig11(std::uint64_t seed, unsigned threads, unsigned reps) {
  return sweep("sweep.fig11", [reps](const Rep& rep) {
    for (const double ia : {10.0, 50.0, 100.0})
      for (const bool miso : {false, true}) {
        vista::VistaIsmParams p;
        p.horizon_ms = 10'000;
        p.mean_interarrival_ms = ia;
        p.miso = miso;
        rep(reps, static_cast<std::uint64_t>(ia * 1024),
            [p](stats::Rng& rng) -> sim::Responses {
              const auto m = vista::run_vista_ism(p, rng);
              return {{"latency", m.mean_processing_latency_ms},
                      {"buffer", m.mean_input_buffer_length}};
            });
      }
  }, seed, threads);
}

struct Iteration {
  SweepOut f05, f09, f11;
  double wall_s = 0;
  ProcUsage usage;  ///< process CPU and context switches during the sweeps
  double added_rss_mb = 0;  ///< resident set the sweeps added at their peak
  double fingerprint() const {
    return f05.fingerprint + f09.fingerprint + f11.fingerprint;
  }
  unsigned replications() const {
    return f05.replications + f09.replications + f11.replications;
  }
  std::uint64_t events() const { return f05.events + f09.events + f11.events; }
};

Iteration iterate(std::uint64_t seed, unsigned threads, const Reps& reps) {
  Iteration it;
  RssWatch rss;
  const ProcUsage u0 = ProcUsage::now();
  const auto t0 = Clock::now();
  it.f05 = fig05(seed, threads, reps.fig05);
  it.f09 = fig09(seed, threads, reps.fig09);
  it.f11 = fig11(seed, threads, reps.fig11);
  it.wall_s = seconds_since(t0);
  const ProcUsage u1 = ProcUsage::now();
  it.usage.cpu_ns = u1.cpu_ns - u0.cpu_ns;
  it.usage.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  it.added_rss_mb = rss.peak_mb() - rss.start_mb();
  return it;
}

template <class F>
double median_of(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const auto& i : its) v.push_back(f(i));
  return median(std::move(v));
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace

RunResult run_model_sweep(const RunOptions& opts) {
  RunResult res;
  const unsigned workers = sim::ThreadPool::default_threads();
  const std::uint64_t seed = stats::Rng::hash_seed(opts.seed, 0x5EED);
  const Reps reps;

  // Set-up: what replicate() pays before its first replication — a pool of
  // nproc workers started, handed one task and joined.  Median of several.
  std::vector<double> setup;
  for (int i = 0; i < 60; ++i) {
    const auto t0 = Clock::now();
    {
      sim::ThreadPool pool(workers);
      pool.submit([] {});
      pool.wait();
    }
    setup.push_back(seconds_since(t0));
  }

  const double base_rss_mb = trimmed_resident_mb();

  // Correctness: a reduced sweep at nproc workers must match a 1-thread run
  // bit for bit.
  const Reps small{1, 2, 2};
  const Iteration parallel = iterate(seed, workers, small);
  const Iteration serial = iterate(seed, 1, small);
  res.attempted += parallel.replications() + serial.replications();
  if (parallel.fingerprint() != serial.fingerprint()) {
    res.failed += parallel.replications();
    res.fail("model sweep at nproc workers differs from the 1-thread run");
  }

  // Warm-up iteration, then timed iterations until the deadline.  Every
  // timed iteration must reproduce the warm-up's fingerprint exactly.
  const Iteration warm = iterate(seed, workers, reps);
  res.attempted += warm.replications();
  const auto reps_per_s = [](const Iteration& i) {
    return i.replications() / i.wall_s;
  };
  std::vector<Iteration> untraced, traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  do {
    for (const bool tr : {false, true}) {
      if (tr && !opts.trace) continue;
      spans::enable(tr);
      Iteration it = iterate(seed, workers, reps);
      spans::enable(false);
      std::printf("  iteration%s %8.1f reps/s  fig05 %6.1f ms  fig09 %6.1f ms  "
                  "fig11 %6.1f ms  rss +%4.1f MiB\n",
                  tr ? " (traced)" : "         ", reps_per_s(it),
                  it.f05.wall_s * 1e3, it.f09.wall_s * 1e3,
                  it.f11.wall_s * 1e3, it.added_rss_mb);
      res.attempted += it.replications();
      if (it.fingerprint() != warm.fingerprint()) {
        res.failed += it.replications();
        res.fail("model sweep fingerprint changed between iterations");
      }
      (tr ? traced : untraced).push_back(std::move(it));
    }
  } while (Clock::now() < deadline);

  if (!opts.trace) {
    res.add("delivered_rps", median_of(untraced, [](const Iteration& i) {
              return static_cast<double>(i.events()) / i.wall_s;
            }));
    std::vector<double> p50, p90;
    for (const auto& i : untraced) {
      std::vector<double> all = i.f05.rep_ns;
      all.insert(all.end(), i.f09.rep_ns.begin(), i.f09.rep_ns.end());
      all.insert(all.end(), i.f11.rep_ns.begin(), i.f11.rep_ns.end());
      const auto p = percentiles(std::move(all));
      p50.push_back(p.p50 * 1e-3);
      p90.push_back(p.p90 * 1e-3);
    }
    // As for the live workloads: the 10th percentile over iterations.
    res.add("deliver_p50_us", quantile(p50, 0.1));
    res.add("deliver_p90_us", quantile(p90, 0.1));
    res.add("record_p50_ns", median_of(untraced, [](const Iteration& i) {
              return median({ratio(i.f05.busy_ns, i.f05.events),
                             ratio(i.f09.busy_ns, i.f09.events),
                             ratio(i.f11.busy_ns, i.f11.events)});
            }));
    res.add("delivered_ratio",
            ratio(static_cast<double>(res.attempted - res.failed),
                  static_cast<double>(res.attempted)));
    res.add("peak_rss_mb", base_rss_mb + median_of(untraced, [](const Iteration& i) {
                                             return i.added_rss_mb;
                                           }));
    res.add("setup_s", median(setup));
    res.add("model_reps_per_s", median_of(untraced, reps_per_s));
    return res;
  }

  res.add("trace.overhead_ratio", ratio(median_of(untraced, reps_per_s),
                                        median_of(traced, reps_per_s)));
  res.add("lost_ratio", ratio(static_cast<double>(res.failed),
                              static_cast<double>(res.attempted)));
  res.add("sim.events_per_s", median_of(untraced, [](const Iteration& i) {
            const double busy = static_cast<double>(
                i.f05.busy_ns + i.f09.busy_ns + i.f11.busy_ns);
            return ratio(static_cast<double>(i.events()), busy * 1e-9);
          }));
  res.add("sim.pool_busy_share", median_of(untraced, [](const Iteration& i) {
            const double busy = static_cast<double>(
                i.f05.busy_ns + i.f09.busy_ns + i.f11.busy_ns);
            const double idle = static_cast<double>(
                i.f05.idle_ns + i.f09.idle_ns + i.f11.idle_ns);
            return ratio(busy, busy + idle);
          }));
  res.add("sim.queue_wait_ms_mean", median_of(untraced, [](const Iteration& i) {
            return ratio(
                (i.f05.queue_wait_ns + i.f09.queue_wait_ns +
                 i.f11.queue_wait_ns) * 1e-6,
                static_cast<double>(i.f05.tasks + i.f09.tasks + i.f11.tasks));
          }));
  res.add("sim.fig05_s",
          median_of(untraced, [](const Iteration& i) { return i.f05.wall_s; }));
  res.add("sim.fig09_s",
          median_of(untraced, [](const Iteration& i) { return i.f09.wall_s; }));
  res.add("sim.fig11_s",
          median_of(untraced, [](const Iteration& i) { return i.f11.wall_s; }));
  res.add("proc.rss_retained_mb", trimmed_resident_mb() - base_rss_mb);
  res.add("proc.cpu_ns_per_record", median_of(untraced, [](const Iteration& i) {
            return ratio(static_cast<double>(i.usage.cpu_ns),
                         static_cast<double>(i.events()));
          }));
  res.add("proc.ctx_switches_per_krec",
          median_of(untraced, [](const Iteration& i) {
            return ratio(1e3 * static_cast<double>(i.usage.ctx_switches),
                         static_cast<double>(i.events()));
          }));
  return res;
}

}  // namespace perfbench
