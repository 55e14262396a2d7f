// The Instrumentation System Manager (§2.2.2).
//
// "The LIS forwards instrumentation data from the concurrent system nodes to
// a logically centralized location called the Instrumentation System Manager
// (ISM), which manages the data in real-time.  The functions of the ISM
// include temporary buffering of data, storing of data on a mass-storage
// device, and pre-processing of data for analysis and/or visualization tools
// (e.g., causal ordering)."
//
// The live ISM here mirrors Fig. 2: input buffer(s) fed by the TP, an
// instrumentation data processor (causal reordering + logical timestamping),
// an output buffer drained to the attached tools, and an optional storage
// tier (trace file).  The input side is configurable as SISO (one shared
// input buffer) or MISO (one per node) — the §3.3.2 design alternatives —
// and the ISM self-measures the §3.3.2 metrics: data processing latency and
// average input buffer length.
//
// The processor works per input batch, not per record: the records the
// reorderer releases while it takes in one batch form a run, and at the end
// of the batch the processor publishes the run's stats under one lock and
// hands the whole run to the dispatch thread in one push.  The dispatcher
// likewise consumes a run per wake-up and publishes once per run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/tool.hpp"
#include "core/transfer_protocol.hpp"
#include "obs/pipeline.hpp"
#include "stats/quantile.hpp"
#include "stats/summary.hpp"
#include "trace/causal.hpp"
#include "trace/file.hpp"

namespace prism::core {

/// Input-buffer configuration (§3.3.2).
enum class InputConfig : std::uint8_t {
  kSiso,  ///< Single Input buffer, Single Output buffer
  kMiso,  ///< Multiple Input buffers (one per node), Single Output buffer
};

std::string_view to_string(InputConfig c);

struct IsmConfig {
  InputConfig input = InputConfig::kSiso;
  /// Output buffer bound, in records; runs larger than the free space are
  /// handed off in pieces.
  std::size_t output_capacity = 8192;
  /// Causally reorder and logically timestamp records before dispatch.
  bool causal_ordering = true;
  /// Optional storage tier: every processed record is also appended here.
  std::optional<std::filesystem::path> storage_path;
};

struct IsmStats {
  std::uint64_t batches_received = 0;
  std::uint64_t records_received = 0;
  std::uint64_t records_dispatched = 0;
  std::uint64_t records_stored = 0;
  std::uint64_t held_back = 0;          ///< out-of-order arrivals buffered
  /// Records the processor still holds (snapshot): the reorderer's residue,
  /// plus, while the output buffer is full, released records not yet handed
  /// to it.  At quiescence this is the reorderer residue alone.
  std::uint64_t still_held = 0;
  /// Output buffer occupancy in records (snapshot): handed off by the
  /// processor and not yet published as dispatched.  At most
  /// IsmConfig::output_capacity.
  std::uint64_t in_output = 0;
  double hold_back_ratio = 0.0;
  /// Data processing latency (ns): TP send -> output buffer (§3.3.2).
  stats::Summary processing_latency_ns;
  /// On-line 95th-percentile processing latency (P2 estimator; 0 when no
  /// records have been processed).
  double processing_latency_p95_ns = 0;
  /// Output-queue residence (ns): output buffer -> tool dispatch.
  stats::Summary dispatch_latency_ns;
  /// Tools isolated after throwing from consume()/finish() or being crashed
  /// by the fault plane (kToolCallback).  A failed tool is skipped for the
  /// rest of the run; the pipeline keeps serving the survivors.
  std::uint64_t tools_failed = 0;
  /// Sources declared dead via mark_source_dead().
  std::uint64_t sources_dead = 0;
  /// Held-back records force-released because their source died (the
  /// matching sends will never arrive; see CausalReorderer::expire_node).
  std::uint64_t expired_released = 0;

  std::uint64_t records_in() const { return records_received; }
  /// Record-conservation invariant: every record the TP delivered is
  /// dispatched to the tools, still held by the processor, or still in the
  /// output buffer.  Exact in every snapshot: the processor publishes a
  /// batch's records and the dispatcher a run's in one critical section.
  bool conserved() const {
    return records_in() == records_dispatched + still_held + in_output;
  }
};

class Ism {
 public:
  /// The ISM consumes every data link of `tp`; `tp` must outlive the ISM.
  Ism(TransferProtocol& tp, IsmConfig config);
  ~Ism();
  Ism(const Ism&) = delete;
  Ism& operator=(const Ism&) = delete;

  /// Attaches a tool (before or after start()).
  void attach_tool(std::shared_ptr<Tool> tool);

  /// Starts the data-processor and dispatch threads.
  void start();

  /// Drains in-flight data, stops threads, finishes tools.  Idempotent.
  /// Callers must stop all LISes first so no new data races the drain.
  void stop();

  IsmStats stats() const;
  const IsmConfig& config() const { return config_; }

  /// Attaches the model-time observability sink (may be null).  Call before
  /// start(); records stamped: kIsmInput, kIsmProcessed, kToolDispatch,
  /// with kIsmQueue losses for the causally unresolvable shutdown residue.
  void set_observer(obs::PipelineObserver* o) { observer_ = o; }

  /// ISM -> LIS control plane (dynamic instrumentation, FAOF broadcast...).
  void broadcast_control(const ControlMessage& m) { tp_.broadcast(m); }

  /// Attaches the fault plane (may be null).  Call before start().
  /// Consulted at kTpReceive (per batch), kIsmDispatch (per record) and
  /// kToolCallback (per tool per record; node = tool index).
  void set_fault(fault::FaultInjector* f) { fault_ = f; }

  /// Declares a source node dead: the causal reorderer stops waiting for
  /// sends from that node, so receives held back on its messages are
  /// force-released at drain time instead of stranding as residue.  Safe to
  /// call any time before or during stop().
  void mark_source_dead(std::uint32_t node);

  /// Declares a whole group of source nodes dead at once — a federated
  /// deployment's unit of death is an aggregator shard (DESIGN.md §16).
  /// The group is expired together at drain time (one
  /// CausalReorderer::expire_nodes pass), so holds *between* two nodes of
  /// the dead shard resolve instead of stranding.
  void mark_sources_dead(const std::vector<std::uint32_t>& nodes);

 private:
  /// Records handed to the dispatcher in one push, stamped with the time the
  /// processor published them.
  struct Run {
    std::vector<trace::EventRecord> records;
    std::uint64_t t_processed_ns = 0;
  };
  /// Per-stream arrival bookkeeping for held records: the highest seq of a
  /// run of one batch's records and that batch's TP send time.
  struct ArrivalRun {
    std::uint64_t last_seq = 0;
    std::uint64_t t_sent_ns = 0;
  };

  void processor_main();
  void dispatch_main();
  void process_batch(DataBatch&& batch);
  /// Appends one released record to the processor's run.
  void append(const trace::EventRecord& r, std::uint64_t t_arrival_ns);
  /// TP send time of the batch that brought `r` (stream FIFO lookup).
  std::uint64_t arrival_of(const trace::EventRecord& r);
  void note_arrivals(const DataBatch& batch);
  /// Publishes the batch's stats and hands the run to the dispatcher, cut
  /// into pieces that fit the output buffer.  `batches` and `records` are
  /// what the processor took in since the last hand-off.
  void hand_off(std::size_t batches, std::size_t records);
  void dispatch_run(const Run& run, stats::Summary& latency);

  TransferProtocol& tp_;
  IsmConfig config_;
  std::vector<std::shared_ptr<Tool>> tools_;
  std::unique_ptr<trace::CausalReorderer> reorderer_;
  std::unique_ptr<trace::TraceFileWriter> storage_;
  bool started_ = false;
  bool stopped_ = false;
  mutable std::mutex mu_;
  IsmStats stats_;
  obs::PipelineObserver* observer_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  /// Nodes declared dead (guarded by mu_); drained by processor_main.
  std::vector<std::uint32_t> dead_sources_;
  /// Per-tool failed flag; dispatcher-thread-only until after join.
  std::vector<char> tool_dead_;
  stats::P2Quantile proc_latency_p95_{0.95};

  // Output buffer (guarded by mu_).  out_records_ counts the records in
  // runs_ plus the run the dispatcher is working on, so a snapshot never
  // loses the records between pop and publish.
  std::deque<Run> runs_;
  std::size_t out_records_ = 0;
  bool out_closed_ = false;
  std::condition_variable out_ready_;
  std::condition_variable out_space_;

  // Processor-thread state.
  /// Records released during the current batch, and their TP send times.
  std::vector<trace::EventRecord> run_;
  std::vector<std::uint64_t> run_arrival_ns_;
  /// Per-stream FIFO of arrival runs (stream key node << 32 | process).
  std::unordered_map<std::uint64_t, std::deque<ArrivalRun>> arrivals_;
  std::uint64_t arrivals_key_ = 0;
  std::deque<ArrivalRun>* arrivals_last_ = nullptr;
  /// TP send time of the batch being processed.
  std::uint64_t current_batch_arrival_ns_ = 0;
  /// Logical stamp counter when causal ordering is disabled.
  std::uint64_t plain_lamport_ = 0;

  // Declared last: the threads use every member above.
  std::thread processor_;
  std::thread dispatcher_;
};

}  // namespace prism::core
