#include "core/ism.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/clock.hpp"
#include "core/io_loop.hpp"
#include "obs/live/flight.hpp"
#include "obs/obs.hpp"

namespace prism::core {

std::string_view to_string(InputConfig c) {
  switch (c) {
    case InputConfig::kSiso: return "SISO";
    case InputConfig::kMiso: return "MISO";
  }
  return "unknown";
}

namespace {

std::uint64_t stream_seq_key(const trace::EventRecord& r) {
  // node:process:seq packed; seq is bounded well below 2^28 in practice for
  // live runs, and collisions only skew a latency sample, never correctness.
  return (static_cast<std::uint64_t>(r.node) << 46) ^
         (static_cast<std::uint64_t>(r.process) << 28) ^ r.seq;
}

obs::LineageKey obs_key(const trace::EventRecord& r) {
  return obs::lineage_key(r.node, r.process, r.seq);
}

}  // namespace

Ism::Ism(TransferProtocol& tp, IsmConfig config)
    : tp_(tp), config_(config) {
  output_ = std::make_unique<Channel<Timed>>(config_.output_capacity);
  if (config_.storage_path)
    storage_ = std::make_unique<trace::TraceFileWriter>(*config_.storage_path);
  // Sanity: TP link layout must match the configured input style.
  if (config_.input == InputConfig::kSiso && tp_.data_link_count() != 1)
    throw std::invalid_argument("Ism: SISO needs exactly one data link");
  if (config_.input == InputConfig::kMiso &&
      tp_.data_link_count() != tp_.nodes())
    throw std::invalid_argument("Ism: MISO needs one data link per node");
}

Ism::~Ism() { stop(); }

void Ism::attach_tool(std::shared_ptr<Tool> tool) {
  if (!tool) throw std::invalid_argument("Ism: null tool");
  std::lock_guard lk(mu_);
  if (started_) throw std::logic_error("Ism: attach_tool after start");
  tools_.push_back(std::move(tool));
}

void Ism::start() {
  std::lock_guard lk(mu_);
  if (started_) return;
  started_ = true;
  tool_dead_.assign(tools_.size(), 0);
  running_.store(true);
  processor_ = std::thread([this] { processor_main(); });
  dispatcher_ = std::thread([this] { dispatch_main(); });
}

void Ism::mark_source_dead(std::uint32_t node) {
  std::lock_guard lk(mu_);
  if (std::find(dead_sources_.begin(), dead_sources_.end(), node) !=
      dead_sources_.end())
    return;
  dead_sources_.push_back(node);
  ++stats_.sources_dead;
  PRISM_OBS_COUNT("core.ism.sources_dead");
}

void Ism::mark_sources_dead(const std::vector<std::uint32_t>& nodes) {
  for (auto n : nodes) mark_source_dead(n);
}

void Ism::processor_main() {
  // Latency bookkeeping for records held back by the reorderer: record key
  // -> TP arrival time.
  std::unordered_map<std::uint64_t, std::uint64_t> arrival_ns;

  if (config_.causal_ordering) {
    reorderer_ = std::make_unique<trace::CausalReorderer>(
        [this, &arrival_ns](const trace::EventRecord& r) {
          auto it = arrival_ns.find(stream_seq_key(r));
          const std::uint64_t t_arr =
              it != arrival_ns.end() ? it->second : current_batch_arrival_ns_;
          if (it != arrival_ns.end()) arrival_ns.erase(it);
          emit(r, t_arr);
        });
  }

  // The ISM consumes receive_link(): the data link itself for in-process
  // flavors, the socket backend's egress buffer when one is enabled.
  const bool siso = tp_.data_link_count() == 1;
  tp_.drain_receive_links([&](Message& msg) {
    if (siso)
      PRISM_OBS_GAUGE_SET("core.ism.input_depth", tp_.receive_link(0).size());
    if (observer_)
      tp_.sample_depths(&observer_->timeline, static_cast<double>(now_ns()));
    if (auto* batch = std::get_if<DataBatch>(&msg)) {
      if (config_.causal_ordering) {
        for (auto& r : batch->records)
          arrival_ns.emplace(stream_seq_key(r), batch->t_sent_ns);
      }
      process_batch(std::move(*batch));
    }
  });
  // Input exhausted.  First, stop waiting on dead sources: their sends will
  // never arrive, so receives held back on them are force-released (in
  // stream order) rather than stranded.  Whatever remains after expiry is
  // genuinely unresolvable; it stays held, and stats expose the residue via
  // held_back / still_held.  Lineage attributes it as ISM queue loss.
  if (reorderer_) {
    std::vector<std::uint32_t> dead;
    {
      std::lock_guard lk(mu_);
      dead = dead_sources_;
    }
    // One group expiry, not a per-node loop: when the dead set is a whole
    // aggregator shard, holds between two of its nodes must resolve within
    // the same pass (see CausalReorderer::expire_nodes).
    const std::size_t released = reorderer_->expire_nodes(dead);
    if (released) {
      std::lock_guard lk(mu_);
      stats_.expired_released += released;
      PRISM_OBS_COUNT_N("core.ism.expired_released", released);
    }
    if (observer_) {
      const auto t = static_cast<double>(now_ns());
      for (const auto& r : reorderer_->held_records())
        observer_->lineage.lose(obs_key(r), obs::LossSite::kIsmQueue, t);
    }
    std::lock_guard lk(mu_);
    stats_.still_held = reorderer_->held();
  }
  output_->close();
}

void Ism::process_batch(DataBatch&& batch) {
  PRISM_OBS_SPAN("ism.process_batch", "core");
  if (fault_) {
    // Receive-side faults: only delay kinds are meaningful here (the batch
    // already crossed the link; dropping it would un-conserve the ledger).
    const auto f =
        fault_->consult(fault::FaultSite::kTpReceive, batch.source_node);
    if (f.kind == fault::FaultKind::kStall ||
        f.kind == fault::FaultKind::kSlowConsumer)
      fault::sleep_ns(f.stall_ns);
  }
  PRISM_OBS_COUNT("core.ism.batches_received");
  PRISM_OBS_COUNT_N("core.ism.records_received", batch.records.size());
  {
    std::lock_guard lk(mu_);
    ++stats_.batches_received;
    stats_.records_received += batch.records.size();
  }
  current_batch_arrival_ns_ = batch.t_sent_ns;
  if (observer_) {
    const auto t_in = static_cast<double>(now_ns());
    for (const auto& r : batch.records)
      observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kIsmInput,
                               t_in);
  }
  for (auto& r : batch.records) {
    if (config_.causal_ordering) {
      reorderer_->offer(r);
    } else {
      trace::EventRecord out = r;
      out.lamport = ++plain_lamport_;
      emit(out, batch.t_sent_ns);
    }
  }
  // The records are consumed (copied into the reorderer or emitted); the
  // storage goes back to the transport readers' staging pool.
  BatchArena::instance().release(std::move(batch.records));
  if (config_.causal_ordering) {
    std::lock_guard lk(mu_);
    stats_.held_back = reorderer_->held_back_total();
    stats_.still_held = reorderer_->held();
    stats_.hold_back_ratio = reorderer_->hold_back_ratio();
    PRISM_OBS_GAUGE_SET("core.ism.held_back", stats_.held_back);
    if (observer_)
      observer_->timeline.sample_changed(
          "ism.held", static_cast<double>(now_ns()),
          static_cast<double>(stats_.still_held));
  }
}

void Ism::emit(const trace::EventRecord& r, std::uint64_t t_arrival_ns) {
  const std::uint64_t t_now = now_ns();
  {
    std::lock_guard lk(mu_);
    const double latency =
        static_cast<double>(t_now >= t_arrival_ns ? t_now - t_arrival_ns : 0);
    stats_.processing_latency_ns.add(latency);
    proc_latency_p95_.add(latency);
    PRISM_OBS_HIST("core.ism.processing_latency_ns", latency);
    if (storage_) {
      storage_->write(r);
      ++stats_.records_stored;
    }
  }
  if (observer_) {
    observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kIsmProcessed,
                             static_cast<double>(t_now));
    observer_->timeline.sample_changed(
        "ism.output_depth", static_cast<double>(t_now),
        static_cast<double>(output_->size() + 1));
  }
  output_->push(Timed{r, t_now});
}

void Ism::dispatch_main() {
  while (auto timed = output_->pop()) {
    if (fault_) {
      const auto f = fault_->consult(fault::FaultSite::kIsmDispatch, 0);
      if (f.kind == fault::FaultKind::kStall ||
          f.kind == fault::FaultKind::kSlowConsumer)
        fault::sleep_ns(f.stall_ns);
    }
    const std::uint64_t t_now = now_ns();
    PRISM_OBS_GAUGE_SET("core.ism.output_depth", output_->size());
    for (std::size_t i = 0; i < tools_.size(); ++i) {
      if (tool_dead_[i]) continue;
      if (fault_) {
        const auto f = fault_->consult(fault::FaultSite::kToolCallback,
                                       static_cast<std::uint32_t>(i));
        if (f.kind == fault::FaultKind::kCrash) {
          tool_dead_[i] = 1;
          PRISM_OBS_FLIGHT("tool_isolated", "fault_crash", i, 1);
          std::lock_guard lk(mu_);
          ++stats_.tools_failed;
          PRISM_OBS_COUNT("core.ism.tools_failed");
          continue;
        }
        if (f.kind == fault::FaultKind::kStall ||
            f.kind == fault::FaultKind::kSlowConsumer)
          fault::sleep_ns(f.stall_ns);
      }
      try {
        tools_[i]->consume(timed->record);
      } catch (...) {
        // A crashing tool must not take the IS down with it: isolate it and
        // keep dispatching to the survivors.
        tool_dead_[i] = 1;
        PRISM_OBS_FLIGHT("tool_isolated", "consume_threw", i, 1);
        std::lock_guard lk(mu_);
        ++stats_.tools_failed;
        PRISM_OBS_COUNT("core.ism.tools_failed");
      }
    }
    if (observer_) {
      observer_->lineage.complete(obs_key(timed->record),
                                  static_cast<double>(t_now));
      observer_->timeline.sample_changed(
          "ism.output_depth", static_cast<double>(t_now),
          static_cast<double>(output_->size()));
    }
    std::lock_guard lk(mu_);
    ++stats_.records_dispatched;
    PRISM_OBS_COUNT("core.ism.records_dispatched");
    stats_.dispatch_latency_ns.add(
        static_cast<double>(t_now >= timed->t_processed_ns
                                ? t_now - timed->t_processed_ns
                                : 0));
  }
}

void Ism::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  running_.store(false);
  // Close the inbound data links: the processor drains them and exits,
  // closing the output channel, which lets the dispatcher drain and exit.
  // Control links stay open through the drain so that tools (steering) can
  // still emit control messages for in-flight records; they close last.
  tp_.close_data_links();
  if (processor_.joinable()) processor_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard lk(mu_);
    if (storage_) storage_->close();
  }
  for (std::size_t i = 0; i < tools_.size(); ++i) {
    if (i < tool_dead_.size() && tool_dead_[i]) continue;  // already isolated
    try {
      tools_[i]->finish();
    } catch (...) {
      PRISM_OBS_FLIGHT("tool_isolated", "finish_threw", i, 1);
      std::lock_guard lk(mu_);
      ++stats_.tools_failed;
      PRISM_OBS_COUNT("core.ism.tools_failed");
    }
  }
  tp_.close_control_links();
}

IsmStats Ism::stats() const {
  std::lock_guard lk(mu_);
  IsmStats out = stats_;
  out.in_output = output_->size();
  if (proc_latency_p95_.count() > 0)
    out.processing_latency_p95_ns = proc_latency_p95_.value();
  return out;
}

}  // namespace prism::core
