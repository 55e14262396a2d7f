// Three-way transport benchmark for the live TP tier (DESIGN.md §11).
//
// Two tiers of measurement from one binary:
//
//  1. Environment legs: the same seeded workload through every data-plane
//     backend — in-process links (tp = pipe), AF_UNIX sockets, TCP loopback,
//     and shared-memory rings (tp = shm) — comparing wall time and
//     events/sec end to end (LIS -> TP -> ISM -> tool).  On small machines
//     these converge to the ISM drain rate, so they answer "does the
//     transport keep up", not "how fast is the transport".
//
//  2. Raw data-plane legs: the transport primitives alone, stripped of the
//     pipeline — the framed wire over a pipe(2) (syscalls plus kernel
//     copies), a socketpair doing the same, an ShmRing frame
//     write/read (two memcpys, two release stores, no kernel), and a
//     Channel<Message> push/pop (the in-process reference point, one heap
//     message per frame) — with a pinned thread and a warm-up pass before
//     timing (SNIPPETS.md idiom).  Only these single-threaded legs run
//     pinned: the environment legs keep every core, so the framed-link
//     pumps and reader really hand batches across threads.  This is where the shm design goal is
//     enforced: raw shm throughput must beat the pipe wire >= 5x at
//     batch=1.
//
// A seeded kTpSend-only chaos plan then runs on pipe, socket, and shm, and
// the three loss ledgers must be bit-identical (fault lanes key on the
// batch's source node, so a plan that never touches the wire sites is
// transport-independent).  Writes BENCH_tp_transport.json and exits nonzero
// when conservation, equivalence, wire accounting, or the raw speedup gate
// fails, so the bench doubles as a soak gate.  --quick shrinks the workload
// for CI perf-gate runs (recorded in the JSON so baselines compare
// like-for-like).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif
#include <unistd.h>

#include "bench_json.hpp"
#include "core/environment.hpp"
#include "core/io_loop.hpp"
#include "core/shm_link.hpp"
#include "core/shm_ring.hpp"
#include "core/socket_link.hpp"
#include "core/tool.hpp"
#include "fault/fault.hpp"
#include "obs/pipeline.hpp"

using namespace prism;

namespace {

std::uint64_t g_records = 40'000;      // env legs (--quick: 8'000)
std::uint64_t g_raw_frames = 200'000;  // raw legs (--quick: 40'000)
constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kSeed = 0x7A9B5;

/// Best-effort pin of the calling thread while in scope (SNIPPETS.md:
/// benchmarks pin threads to cores); the previous affinity comes back on
/// exit.  Threads started inside would inherit the pin, so only the
/// single-threaded raw legs run under it.  A refusal — or a single-CPU box —
/// is not an error; the point is stable numbers where the OS allows them.
class CpuPin {
 public:
  explicit CpuPin(unsigned cpu) {
#ifdef __linux__
    saved_ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
#else
    (void)cpu;
#endif
  }
  ~CpuPin() {
#ifdef __linux__
    if (saved_ok_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
#endif
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
#ifdef __linux__
  cpu_set_t saved_{};
  bool saved_ok_ = false;
#endif
};

struct WireCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t writes = 0;  ///< socket only (shm has no write syscalls)
  std::uint64_t bytes = 0;
};

struct RunResult {
  obs::LineageReport lineage;
  core::DegradationReport degradation;
  double wall_ms = 0;
  std::optional<WireCounters> wire;  ///< real backends (socket / shm) only
};

RunResult run_once(core::TpFlavor flavor, core::SocketDomain domain,
                   fault::FaultInjector* inj) {
  core::EnvironmentConfig cfg;
  cfg.nodes = kNodes;
  cfg.lis_style = core::LisStyle::kBuffered;
  cfg.flush_policy = core::FlushPolicyKind::kFof;
  cfg.local_buffer_capacity = 32;  // ~g_records/32 frames hit the transport
  cfg.link_capacity = 8192;
  cfg.tp_flavor = flavor;
  cfg.socket.domain = domain;
  cfg.ism.input = core::InputConfig::kSiso;
  cfg.ism.causal_ordering = true;
  core::IntegratedEnvironment env(cfg);
  env.attach_tool(std::make_shared<core::StatsTool>());
  obs::PipelineObserver obs;
  env.set_observer(&obs);
  fault::RetryPolicy rp;
  rp.base_backoff_ns = 200;
  if (inj) env.set_fault(inj, rp);
  env.start();

  const auto t0 = std::chrono::steady_clock::now();
  trace::EventRecord r;
  for (std::uint64_t i = 0; i < g_records; ++i) {
    r.node = static_cast<std::uint32_t>(i % kNodes);
    r.seq = i / kNodes;
    r.timestamp = i;
    env.record(r);
  }
  env.stop();  // includes the wire drain/quiesce — measured on purpose
  const auto t1 = std::chrono::steady_clock::now();

  RunResult out;
  out.lineage = obs.lineage.report();
  out.degradation = env.degradation();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (auto* st = env.tp().socket_transport()) {
    WireCounters w;
    for (std::size_t i = 0; i < st->link_count(); ++i) {
      const auto& l = st->link(i);
      w.frames_sent += l.frames_sent();
      w.frames_delivered += l.frames_delivered();
      w.writes += l.writes();
      w.bytes += l.bytes_sent();
    }
    out.wire = w;
  } else if (auto* sh = env.tp().shm_transport()) {
    WireCounters w;
    for (std::size_t i = 0; i < sh->link_count(); ++i) {
      const auto& l = sh->link(i);
      w.frames_sent += l.frames_sent();
      w.frames_delivered += l.frames_delivered();
      w.bytes += l.bytes_sent();
    }
    out.wire = w;
  }
  return out;
}

bool same_ledger(const RunResult& a, const RunResult& b) {
  return a.lineage.admitted == b.lineage.admitted &&
         a.lineage.completed == b.lineage.completed &&
         a.lineage.lost == b.lineage.lost &&
         a.lineage.lost_at == b.lineage.lost_at &&
         a.degradation.lises_dead == b.degradation.lises_dead &&
         a.degradation.records_lost_send == b.degradation.records_lost_send &&
         a.degradation.records_lost_dead == b.degradation.records_lost_dead;
}

/// A plan confined to the in-process kTpSend site: it consults the same
/// per-node lanes in the same order on every backend, so the resulting
/// ledgers must match across pipe, socket, and shm.
fault::FaultPlan tp_only_plan() {
  fault::FaultPlan plan;
  plan.crash(fault::FaultSite::kTpSend, 50, /*node=*/kNodes - 1);
  plan.send_failure(fault::FaultSite::kTpSend, 0.02);
  return plan;
}

bool check_clean(const char* label, const RunResult& r, bool* ok) {
  bool good = true;
  if (!r.lineage.conserved() || r.lineage.in_flight != 0) {
    std::printf("FAIL: %s lineage not conserved\n", label);
    good = false;
  }
  if (r.degradation.degraded() || r.lineage.completed != g_records) {
    std::printf("FAIL: %s fault-free run degraded\n", label);
    good = false;
  }
  if (!good) *ok = false;
  return good;
}

bench::JsonValue backend_json(const RunResult& r) {
  auto o = bench::JsonValue::object();
  o.add("wall_ms", bench::JsonValue::number(r.wall_ms))
      .add("events_per_sec",
           bench::JsonValue::number(
               r.wall_ms > 0 ? 1e3 * static_cast<double>(g_records) / r.wall_ms
                             : 0))
      .add("completed", bench::JsonValue::integer(static_cast<std::int64_t>(
                            r.lineage.completed)));
  if (r.wire) {
    o.add("frames_sent", bench::JsonValue::integer(static_cast<std::int64_t>(
                             r.wire->frames_sent)))
        .add("wire_bytes", bench::JsonValue::integer(
                               static_cast<std::int64_t>(r.wire->bytes)));
    if (r.wire->writes > 0)
      o.add("wire_writes",
            bench::JsonValue::integer(
                static_cast<std::int64_t>(r.wire->writes)))
          .add("coalesce_factor",
               bench::JsonValue::number(
                   static_cast<double>(r.wire->frames_sent) /
                   static_cast<double>(r.wire->writes)));
  }
  return o;
}

// ---- Raw data-plane legs ------------------------------------------------------
//
// Each leg moves the same record stream, frame by frame, through one
// transport primitive with producer and consumer alternating on the pinned
// thread: no pipeline, no pipeline threads, so the number is the data-plane
// cost itself (message allocation + locking for the channel, memcpys +
// release stores for the ring, syscalls + kernel copies for the socket).

double raw_channel_ms(std::uint64_t frames, std::size_t batch_size) {
  // The tp=pipe flavor's *in-process* plane: one heap-allocated Message
  // (DataBatch with its records vector) per frame through a mutex/condvar
  // channel.  Never crosses a kernel boundary, so it is the in-memory
  // reference point, not the wire baseline.
  core::DataLink link(1024);
  const std::vector<trace::EventRecord> payload(batch_size);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < frames; ++i) {
    core::DataBatch b;
    b.source_node = 0;
    b.t_sent_ns = i;
    b.records = payload;  // the per-frame copy every push really pays
    link.push(core::Message(std::move(b)));
    auto msg = link.pop();
    if (!msg) std::abort();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double raw_shm_ms(std::uint64_t frames, std::size_t batch_size) {
  // The shm flavor's data plane: header + records memcpy'd into the ring,
  // memcpy'd back out.  Steady state allocates nothing.
  core::MappedSegment seg(core::ShmRing::segment_bytes(1 << 20));
  core::ShmRing prod = core::ShmRing::create(seg.data(), 1 << 20);
  core::ShmRing cons = core::ShmRing::attach(seg.data());
  const std::vector<trace::EventRecord> payload(batch_size);
  std::vector<trace::EventRecord> sink(batch_size);
  const std::size_t payload_bytes = batch_size * sizeof(trace::EventRecord);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < frames; ++i) {
    core::FrameHeader hdr;
    hdr.source_node = 0;
    hdr.t_sent_ns = i;
    hdr.record_count = batch_size;
    if (!prod.try_write2(&hdr, sizeof hdr, payload.data(), payload_bytes))
      std::abort();
    core::FrameHeader in;
    if (!cons.try_read(&in, sizeof in)) std::abort();
    if (!cons.try_read(sink.data(), payload_bytes)) std::abort();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One framed wire round trip per iteration over a pair of fds — shared by
/// the pipe(2) and socketpair legs, which differ only in what the kernel
/// object between the fds is.
double raw_fd_ms(int read_fd, int write_fd, std::uint64_t frames,
                 std::size_t batch_size) {
  const std::vector<trace::EventRecord> payload(batch_size);
  std::vector<trace::EventRecord> sink(batch_size);
  const std::size_t payload_bytes = batch_size * sizeof(trace::EventRecord);
  std::vector<char> wire(sizeof(core::FrameHeader) + payload_bytes);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < frames; ++i) {
    core::FrameHeader hdr;
    hdr.source_node = 0;
    hdr.t_sent_ns = i;
    hdr.record_count = batch_size;
    std::memcpy(wire.data(), &hdr, sizeof hdr);
    std::memcpy(wire.data() + sizeof hdr, payload.data(), payload_bytes);
    if (core::io_write_all(write_fd, wire.data(), wire.size()) != wire.size())
      std::abort();
    core::FrameHeader in;
    if (core::io_read_full(read_fd, &in, sizeof in) != sizeof in) std::abort();
    if (core::io_read_full(read_fd, sink.data(), payload_bytes) !=
        payload_bytes)
      std::abort();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double raw_pipe_ms(std::uint64_t frames, std::size_t batch_size) {
  // The framed wire over a kernel pipe: one write(2) and two read(2)s per
  // frame — the kernel-copy baseline the shm ring's "zero syscalls, zero
  // kernel copies" is measured against.
  int fds[2];
  if (::pipe(fds) != 0) std::abort();
  const double ms = raw_fd_ms(fds[0], fds[1], frames, batch_size);
  ::close(fds[0]);
  ::close(fds[1]);
  return ms;
}

double raw_socket_ms(std::uint64_t frames, std::size_t batch_size) {
  // The socket flavor's data plane: the same frame through an AF_UNIX pair.
  auto [read_fd, write_fd] = core::make_socket_pair(core::SocketDomain::kUnix);
  const double ms = raw_fd_ms(read_fd, write_fd, frames, batch_size);
  ::close(read_fd);
  ::close(write_fd);
  return ms;
}

struct RawRow {
  std::size_t batch_size = 0;
  double pipe_eps = 0, shm_eps = 0, socket_eps = 0, channel_eps = 0;
  double shm_vs_pipe = 0;
};

RawRow run_raw_legs(std::size_t batch_size) {
  const std::uint64_t frames =
      std::max<std::uint64_t>(g_raw_frames / std::max<std::size_t>(batch_size, 1),
                              10'000);
  // Warm-up pass at a tenth of the load: faults in page mappings, kernel
  // buffers, and the branch predictor get paid before the clock starts.
  (void)raw_pipe_ms(frames / 10, batch_size);
  (void)raw_shm_ms(frames / 10, batch_size);
  (void)raw_socket_ms(frames / 10, batch_size);
  (void)raw_channel_ms(frames / 10, batch_size);

  const double pipe = raw_pipe_ms(frames, batch_size);
  const double shm = raw_shm_ms(frames, batch_size);
  const double sock = raw_socket_ms(frames, batch_size);
  const double chan = raw_channel_ms(frames, batch_size);
  const double events = static_cast<double>(frames * batch_size);
  RawRow row;
  row.batch_size = batch_size;
  row.pipe_eps = pipe > 0 ? 1e3 * events / pipe : 0;
  row.shm_eps = shm > 0 ? 1e3 * events / shm : 0;
  row.socket_eps = sock > 0 ? 1e3 * events / sock : 0;
  row.channel_eps = chan > 0 ? 1e3 * events / chan : 0;
  row.shm_vs_pipe = row.pipe_eps > 0 ? row.shm_eps / row.pipe_eps : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  if (quick) {
    g_records = 8'000;
    g_raw_frames = 40'000;
  }
  bool ok = true;

  const RunResult pipe =
      run_once(core::TpFlavor::kPipe, core::SocketDomain::kUnix, nullptr);
  const RunResult unx =
      run_once(core::TpFlavor::kSocket, core::SocketDomain::kUnix, nullptr);
  const RunResult tcp = run_once(core::TpFlavor::kSocket,
                                 core::SocketDomain::kTcpLoopback, nullptr);
  const RunResult shm =
      run_once(core::TpFlavor::kShm, core::SocketDomain::kUnix, nullptr);

  std::printf("tp_transport: %llu records, %u nodes, seed %#llx%s\n",
              static_cast<unsigned long long>(g_records), kNodes,
              static_cast<unsigned long long>(kSeed),
              quick ? " (quick)" : "");
  std::printf("  pipe:        %8.1f ms  (%.0f ev/s)\n", pipe.wall_ms,
              1e3 * g_records / pipe.wall_ms);
  std::printf("  socket/unix: %8.1f ms  (%.0f ev/s)\n", unx.wall_ms,
              1e3 * g_records / unx.wall_ms);
  std::printf("  socket/tcp:  %8.1f ms  (%.0f ev/s)\n", tcp.wall_ms,
              1e3 * g_records / tcp.wall_ms);
  std::printf("  shm:         %8.1f ms  (%.0f ev/s)\n", shm.wall_ms,
              1e3 * g_records / shm.wall_ms);

  check_clean("pipe", pipe, &ok);
  check_clean("socket/unix", unx, &ok);
  check_clean("socket/tcp", tcp, &ok);
  check_clean("shm", shm, &ok);
  for (const RunResult* r : {&unx, &tcp, &shm}) {
    if (!r->wire || r->wire->frames_sent != r->wire->frames_delivered) {
      std::printf("FAIL: fault-free run dropped frames on the wire\n");
      ok = false;
    }
    if (r->wire && r->wire->writes > r->wire->frames_sent) {
      std::printf("FAIL: more writes than frames (coalescing inverted)\n");
      ok = false;
    }
  }

  // Raw data-plane comparison (pinned, warmed) and the shm design gate.
  std::printf("\nraw data plane (%llu frame budget, pinned, warmed):\n",
              static_cast<unsigned long long>(g_raw_frames));
  std::vector<RawRow> raw;
  {
    const CpuPin pin(0);
    for (const std::size_t bs :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}})
      raw.push_back(run_raw_legs(bs));
  }
  for (const auto& row : raw)
    std::printf("  batch=%2zu  pipe %9.0f ev/s   socket %9.0f ev/s   "
                "channel %11.0f ev/s   shm %11.0f ev/s   shm/pipe %.1fx\n",
                row.batch_size, row.pipe_eps, row.socket_eps, row.channel_eps,
                row.shm_eps, row.shm_vs_pipe);
  const double shm_speedup = raw.front().shm_vs_pipe;  // batch=1 leg
  if (shm_speedup < 5.0) {
    std::printf("FAIL: raw shm plane only %.1fx the pipe wire (need >= 5x)\n",
                shm_speedup);
    ok = false;
  }

  // The equivalence leg: the same seeded kTpSend-only chaos on all three
  // backends must produce the same ledger, and the real-wire runs must not
  // attribute anything to the wire.
  fault::FaultInjector inj_pipe(tp_only_plan(), kSeed);
  const RunResult chaos_pipe =
      run_once(core::TpFlavor::kPipe, core::SocketDomain::kUnix, &inj_pipe);
  fault::FaultInjector inj_sock(tp_only_plan(), kSeed);
  const RunResult chaos_sock =
      run_once(core::TpFlavor::kSocket, core::SocketDomain::kUnix, &inj_sock);
  fault::FaultInjector inj_shm(tp_only_plan(), kSeed);
  const RunResult chaos_shm =
      run_once(core::TpFlavor::kShm, core::SocketDomain::kUnix, &inj_shm);

  std::printf("\nchaos (kTpSend-only, seed %#llx):\n%s\n",
              static_cast<unsigned long long>(kSeed),
              chaos_shm.degradation.to_string().c_str());
  for (const RunResult* r : {&chaos_pipe, &chaos_sock, &chaos_shm}) {
    if (!r->lineage.conserved() || r->lineage.in_flight != 0) {
      std::printf("FAIL: chaos lineage not conserved\n");
      ok = false;
    }
  }
  if (!chaos_pipe.degradation.degraded() ||
      chaos_pipe.degradation.lises_dead == 0) {
    std::printf("FAIL: chaos plan injected nothing\n");
    ok = false;
  }
  if (!same_ledger(chaos_pipe, chaos_sock) ||
      !same_ledger(chaos_pipe, chaos_shm)) {
    std::printf("FAIL: transport ledgers diverged for the same seed\n");
    ok = false;
  }
  if (chaos_sock.degradation.records_lost_wire != 0 ||
      chaos_shm.degradation.records_lost_wire != 0) {
    std::printf("FAIL: kTpSend-only plan leaked losses onto the wire\n");
    ok = false;
  }

  auto raw_arr = bench::JsonValue::array();
  for (const auto& row : raw) {
    auto o = bench::JsonValue::object();
    o.add("batch_size", bench::JsonValue::integer(
              static_cast<std::int64_t>(row.batch_size)))
        .add("pipe_events_per_sec", bench::JsonValue::number(row.pipe_eps))
        .add("socket_events_per_sec", bench::JsonValue::number(row.socket_eps))
        .add("channel_events_per_sec",
             bench::JsonValue::number(row.channel_eps))
        .add("shm_events_per_sec", bench::JsonValue::number(row.shm_eps))
        .add("shm_vs_pipe_speedup", bench::JsonValue::number(row.shm_vs_pipe));
    raw_arr.push(std::move(o));
  }

  auto root = bench::JsonValue::object();
  root.add("bench", bench::JsonValue::string("tp_transport"))
      .add("quick", bench::JsonValue::boolean(quick))
      .add("records", bench::JsonValue::integer(
               static_cast<std::int64_t>(g_records)))
      .add("nodes", bench::JsonValue::integer(kNodes))
      .add("seed", bench::JsonValue::integer(static_cast<std::int64_t>(kSeed)))
      .add("pipe", backend_json(pipe))
      .add("socket_unix", backend_json(unx))
      .add("socket_tcp", backend_json(tcp))
      .add("shm", backend_json(shm))
      .add("socket_vs_pipe_slowdown",
           bench::JsonValue::number(
               pipe.wall_ms > 0 ? unx.wall_ms / pipe.wall_ms : 0))
      .add("raw_data_plane", std::move(raw_arr))
      .add("raw_shm_vs_pipe_speedup", bench::JsonValue::number(shm_speedup))
      .add("chaos_lost", bench::JsonValue::integer(static_cast<std::int64_t>(
                             chaos_shm.lineage.lost)))
      .add("chaos_ledgers_match",
           bench::JsonValue::boolean(same_ledger(chaos_pipe, chaos_sock) &&
                                     same_ledger(chaos_pipe, chaos_shm)))
      .add("conserved",
           bench::JsonValue::boolean(chaos_pipe.lineage.conserved() &&
                                     chaos_sock.lineage.conserved() &&
                                     chaos_shm.lineage.conserved()));
  bench::write_json_file("BENCH_tp_transport.json", root);
  std::printf("\nwrote BENCH_tp_transport.json\n");

  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
