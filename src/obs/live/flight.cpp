#include "obs/live/flight.hpp"

#if PRISM_OBS_ENABLED

#include <bit>
#include <chrono>
#include <stdexcept>

namespace prism::obs::live {

namespace {

std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_escaped(std::string& out, const char* s, std::size_t cap) {
  out += '"';
  for (std::size_t i = 0; i < cap && s[i]; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }  // control characters cannot enter (copy_name strips nothing below
       // 0x20 but producers only pass identifier-like literals); drop them.
  }
  out += '"';
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : mask_(capacity - 1), slots_(new Slot[capacity]) {
  if (capacity == 0 || !std::has_single_bit(capacity))
    throw std::invalid_argument(
        "FlightRecorder: capacity must be a nonzero power of two");
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder r;
  return r;
}

void FlightRecorder::record(std::string_view category, std::string_view detail,
                            std::uint32_t node, std::uint64_t count) noexcept {
  FlightEvent ev;
  ev.t_ns = flight_now_ns();
  ev.count = count;
  ev.node = node;
  const auto copy = [](char* dst, std::size_t cap, std::string_view src) {
    const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  };
  copy(ev.category, sizeof ev.category, category);
  copy(ev.detail, sizeof ev.detail, detail);

  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  slot.seq.store(0, std::memory_order_relaxed);  // invalidate for readers
  std::uint64_t words[kEventWords];
  std::memcpy(words, &ev, sizeof ev);
  // Release: a reader that loads any of these words sees the invalidation
  // above when it re-validates seq, so it never keeps a torn event.
  for (std::size_t i = 0; i < kEventWords; ++i)
    slot.words[i].store(words[i], std::memory_order_release);
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t max) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t base = base_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask_ + 1;
  std::uint64_t first = head > cap ? head - cap : 0;
  if (first < base) first = base;
  if (max < head - first) first = head - max;

  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t t = first; t < head; ++t) {
    const Slot& slot = slots_[t & mask_];
    if (slot.seq.load(std::memory_order_acquire) != t + 1)
      continue;  // overwritten (or mid-write) by a newer ticket: skip
    std::uint64_t words[kEventWords];
    for (std::size_t i = 0; i < kEventWords; ++i)
      words[i] = slot.words[i].load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != t + 1) continue;
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof ev);
    out.push_back(ev);
  }
  return out;
}

std::uint64_t FlightRecorder::count_in_category(std::string_view c) const {
  std::uint64_t total = 0;
  for (const auto& ev : tail())
    if (c == ev.category) total += ev.count;
  return total;
}

std::uint64_t FlightRecorder::events_in_category(std::string_view c) const {
  std::uint64_t n = 0;
  for (const auto& ev : tail())
    if (c == ev.category) ++n;
  return n;
}

std::string FlightRecorder::dump_json(std::size_t max) const {
  const auto events = tail(max);
  std::string out;
  out += "{\"recorded\":";
  out += std::to_string(recorded());
  out += ",\"capacity\":";
  out += std::to_string(capacity());
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (i) out += ',';
    out += "{\"t_ns\":";
    out += std::to_string(ev.t_ns);
    out += ",\"category\":";
    append_escaped(out, ev.category, sizeof ev.category);
    out += ",\"detail\":";
    append_escaped(out, ev.detail, sizeof ev.detail);
    out += ",\"node\":";
    out += std::to_string(ev.node);
    out += ",\"count\":";
    out += std::to_string(ev.count);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace prism::obs::live

#endif  // PRISM_OBS_ENABLED
