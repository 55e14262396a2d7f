#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "core/clock.hpp"

namespace perfbench::spans {
namespace {

struct Record {
  const char* name;
  std::uint64_t start_ns, end_ns, id, parent;
};

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<Record> spans;
  std::vector<std::uint64_t> open;  ///< ids of the spans still open
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadLog>> g_logs;  // guarded by g_mu

ThreadLog& log() {
  // Shared ownership keeps a finished generator thread's spans alive until
  // they are written.
  thread_local std::shared_ptr<ThreadLog> mine = [] {
    auto l = std::make_shared<ThreadLog>();
    std::lock_guard lk(g_mu);
    l->tid = static_cast<std::uint32_t>(g_logs.size());
    g_logs.push_back(l);
    return l;
  }();
  return *mine;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  auto& l = log();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = l.open.empty() ? 0 : l.open.back();
  l.open.push_back(id_);
  start_ns_ = prism::core::now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = prism::core::now_ns();
  auto& l = log();
  l.open.pop_back();
  l.spans.push_back({name_, start_ns_, end, id_, parent_});
}

SpanStats stats(const std::string& name) {
  std::lock_guard lk(g_mu);
  SpanStats s;
  double total = 0;
  for (const auto& l : g_logs)
    for (const auto& r : l->spans)
      if (name == r.name) {
        ++s.count;
        total += static_cast<double>(r.end_ns - r.start_ns);
      }
  s.mean_ns = s.count ? total / static_cast<double>(s.count) : 0;
  return s;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::lock_guard lk(g_mu);
  for (const auto& l : g_logs)
    for (const auto& r : l->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",", r.name, l->tid, r.start_ns * 1e-3,
                   (r.end_ns - r.start_ns) * 1e-3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
      first = false;
    }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
