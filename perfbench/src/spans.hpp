// In-memory span recorder for the traced run.  Spans are kept per thread
// while the benchmark runs and written out once, at exit, as a Chrome
// trace-event file (viewable at ui.perfetto.dev).  When disabled, a Span
// costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench::spans {

void enable(bool on);
bool enabled();

/// Records [construction, destruction) under `name` on the calling thread,
/// with the innermost open span of the same thread as its parent.  `name`
/// must be a string literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t id_ = 0;
};

/// Count and mean duration (ns) of the finished spans named `name`.
struct SpanStats {
  std::uint64_t count = 0;
  double mean_ns = 0;
};
SpanStats stats(const std::string& name);

/// Writes every recorded span to `path`.  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench::spans
