// In-memory spans of the traced run. Spans are recorded by the
// benchmark's own code around each call into a quest layer (and, for
// the live processes, from the event timestamps the client sees); they
// are written out as JSON lines when the run ends.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace questbench {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t now_ns();

struct Span {
  /// Static string: "<layer>.<operation>", e.g. "serve.codec.parse".
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same log; -1 for a root.
  std::int32_t parent = -1;
  /// The generated request the span belongs to.
  std::uint32_t request = 0;
};

class Span_log {
 public:
  Span_log() { spans_.reserve(1 << 16); }

  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint32_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Opens a span now; close it with end().
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint32_t request) {
    const std::int64_t t = now_ns();
    return add(name, t, t, parent, request);
  }
  void end(std::int32_t span) { spans_[span].end_ns = now_ns(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(std::string_view name) const;

  /// One JSON object per span: name, start_ns, end_ns, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace questbench
