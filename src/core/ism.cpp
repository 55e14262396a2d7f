#include "core/ism.hpp"

#include <algorithm>
#include <stdexcept>

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

obs::LineageKey obs_key(const trace::EventRecord& r) {
  return obs::lineage_key(r.node, r.process, r.seq);
}

}  // namespace

Ism::Ism(TransferProtocol& tp, IsmConfig config)
    : tp_(tp), config_(config) {
  if (config_.output_capacity == 0)
    throw std::invalid_argument("Ism: output_capacity 0");
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
  if (config_.causal_ordering) {
    reorderer_ = std::make_unique<trace::CausalReorderer>(
        [this](const trace::EventRecord& r) { append(r, arrival_of(r)); });
  }

  // The ISM consumes receive_link(): the data link itself for in-process
  // flavors, the socket backend's egress buffer when one is enabled.
  const bool siso = tp_.data_link_count() == 1;
  tp_.drain_receive_links([&](Message& msg) {
    if (siso)
      PRISM_OBS_GAUGE_SET("core.ism.input_depth", tp_.receive_link(0).size());
    if (observer_)
      tp_.sample_depths(&observer_->timeline, static_cast<double>(now_ns()));
    if (auto* batch = std::get_if<DataBatch>(&msg))
      process_batch(std::move(*batch));
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
    hand_off(0, 0);
  }
  {
    std::lock_guard lk(mu_);
    out_closed_ = true;
  }
  out_ready_.notify_one();
}

void Ism::note_arrivals(const DataBatch& batch) {
  // One FIFO entry per run of same-stream records: a held record's latency
  // is measured from its own batch's send, not the batch that released it.
  const auto& recs = batch.records;
  for (std::size_t i = 0; i < recs.size();) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(recs[i].node) << 32) | recs[i].process;
    std::uint64_t last = recs[i].seq;
    std::size_t j = i + 1;
    for (; j < recs.size() && recs[j].node == recs[i].node &&
           recs[j].process == recs[i].process;
         ++j)
      last = std::max(last, recs[j].seq);
    if (arrivals_last_ == nullptr || key != arrivals_key_) {
      arrivals_key_ = key;
      arrivals_last_ = &arrivals_[key];
    }
    arrivals_last_->push_back({last, batch.t_sent_ns});
    i = j;
  }
}

std::uint64_t Ism::arrival_of(const trace::EventRecord& r) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(r.node) << 32) | r.process;
  if (arrivals_last_ == nullptr || key != arrivals_key_) {
    auto it = arrivals_.find(key);
    if (it == arrivals_.end()) return current_batch_arrival_ns_;
    arrivals_key_ = key;
    arrivals_last_ = &it->second;
  }
  // A stream releases in seq order, so runs wholly below r are done.
  auto& fifo = *arrivals_last_;
  while (!fifo.empty() && fifo.front().last_seq < r.seq) fifo.pop_front();
  return fifo.empty() ? current_batch_arrival_ns_ : fifo.front().t_sent_ns;
}

void Ism::append(const trace::EventRecord& r, std::uint64_t t_arrival_ns) {
  run_.push_back(r);
  run_arrival_ns_.push_back(t_arrival_ns);
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
  const std::size_t n = batch.records.size();
  PRISM_OBS_COUNT("core.ism.batches_received");
  PRISM_OBS_COUNT_N("core.ism.records_received", n);
  current_batch_arrival_ns_ = batch.t_sent_ns;
  run_.reserve(n);  // the last hand-off moved the run's storage away
  if (observer_) {
    const auto t_in = static_cast<double>(now_ns());
    for (const auto& r : batch.records)
      observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kIsmInput,
                               t_in);
  }
  if (config_.causal_ordering) {
    note_arrivals(batch);
    for (auto& r : batch.records) reorderer_->offer(r);
  } else {
    for (auto& r : batch.records) {
      trace::EventRecord out = r;
      out.lamport = ++plain_lamport_;
      append(out, batch.t_sent_ns);
    }
  }
  // The records are consumed (copied into the reorderer or the run); the
  // storage goes back to the transport readers' staging pool.
  BatchArena::instance().release(std::move(batch.records));
  hand_off(1, n);
}

void Ism::hand_off(std::size_t batches, std::size_t records) {
  const std::uint64_t t_now = now_ns();
  if (observer_) {
    for (const auto& r : run_)
      observer_->lineage.stamp(obs_key(r), obs::PipelineStage::kIsmProcessed,
                               static_cast<double>(t_now));
  }
  const std::size_t held = reorderer_ ? reorderer_->held() : 0;
  std::unique_lock lk(mu_);
  stats_.batches_received += batches;
  stats_.records_received += records;
  for (const std::uint64_t t_arr : run_arrival_ns_) {
    const double latency =
        static_cast<double>(t_now >= t_arr ? t_now - t_arr : 0);
    stats_.processing_latency_ns.add(latency);
    proc_latency_p95_.add(latency);
    PRISM_OBS_HIST("core.ism.processing_latency_ns", latency);
  }
  if (storage_) {
    for (const auto& r : run_) storage_->write(r);
    stats_.records_stored += run_.size();
  }
  if (reorderer_) {
    stats_.held_back = reorderer_->held_back_total();
    stats_.hold_back_ratio = reorderer_->hold_back_ratio();
    PRISM_OBS_GAUGE_SET("core.ism.held_back", stats_.held_back);
  }
  // Released records not yet in the output buffer count as held until
  // their piece is handed off, so every snapshot is conserved().
  stats_.still_held = held + run_.size();
  const std::size_t cap = config_.output_capacity;
  const std::size_t total = run_.size();
  for (std::size_t done = 0; done < total;) {
    out_space_.wait(lk, [&] { return out_records_ < cap; });
    const std::size_t k = std::min(cap - out_records_, total - done);
    Run piece{{}, t_now};
    if (k == total) {
      piece.records = std::move(run_);  // the common case: no copy
    } else {
      const auto first = run_.begin() + static_cast<std::ptrdiff_t>(done);
      piece.records.assign(first, first + static_cast<std::ptrdiff_t>(k));
    }
    runs_.push_back(std::move(piece));
    done += k;
    out_records_ += k;
    stats_.still_held -= k;
    out_ready_.notify_one();
  }
  const std::size_t depth = out_records_;
  lk.unlock();
  if (observer_) {
    const auto t = static_cast<double>(t_now);
    if (reorderer_)
      observer_->timeline.sample_changed("ism.held", t,
                                         static_cast<double>(held));
    observer_->timeline.sample_changed("ism.output_depth", t,
                                       static_cast<double>(depth));
  }
  run_.clear();
  run_arrival_ns_.clear();
}

void Ism::dispatch_run(const Run& run, stats::Summary& latency) {
  for (const auto& record : run.records) {
    if (fault_) {
      const auto f = fault_->consult(fault::FaultSite::kIsmDispatch, 0);
      if (f.kind == fault::FaultKind::kStall ||
          f.kind == fault::FaultKind::kSlowConsumer)
        fault::sleep_ns(f.stall_ns);
    }
    const std::uint64_t t_now = now_ns();
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
        tools_[i]->consume(record);
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
    if (observer_)
      observer_->lineage.complete(obs_key(record), static_cast<double>(t_now));
    latency.add(static_cast<double>(
        t_now >= run.t_processed_ns ? t_now - run.t_processed_ns : 0));
  }
}

void Ism::dispatch_main() {
  Run run;
  std::unique_lock lk(mu_);
  for (;;) {
    out_ready_.wait(lk, [&] { return !runs_.empty() || out_closed_; });
    if (runs_.empty()) break;
    run = std::move(runs_.front());
    runs_.pop_front();
    PRISM_OBS_GAUGE_SET("core.ism.output_depth", out_records_);
    lk.unlock();
    stats::Summary latency;
    dispatch_run(run, latency);
    const std::size_t k = run.records.size();
    lk.lock();
    // Publish the run: its records leave the output buffer and become
    // dispatched in one step.
    stats_.records_dispatched += k;
    stats_.dispatch_latency_ns.merge(latency);
    out_records_ -= k;
    PRISM_OBS_COUNT_N("core.ism.records_dispatched", k);
    out_space_.notify_one();
    if (observer_) {
      const std::size_t depth = out_records_;
      lk.unlock();
      observer_->timeline.sample_changed("ism.output_depth",
                                         static_cast<double>(now_ns()),
                                         static_cast<double>(depth));
      lk.lock();
    }
  }
}

void Ism::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // Close the inbound data links: the processor drains them and exits,
  // closing the output buffer, which lets the dispatcher drain and exit.
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
  out.in_output = out_records_;
  if (proc_latency_p95_.count() > 0)
    out.processing_latency_p95_ns = proc_latency_p95_.value();
  return out;
}

}  // namespace prism::core
