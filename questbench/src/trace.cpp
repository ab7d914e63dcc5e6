#include "trace.hpp"

#include <time.h>

#include <fstream>
#include <stdexcept>

namespace questbench {

std::int64_t now_ns() {
  timespec t{};
  ::clock_gettime(CLOCK_MONOTONIC, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

std::vector<double> Span_log::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

void Span_log::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans_) {
    out << R"({"name":")" << span.name << R"(","start_ns":)" << span.start_ns
        << R"(,"end_ns":)" << span.end_ns << R"(,"parent":)" << span.parent
        << R"(,"request":)" << span.request << "}\n";
  }
}

}  // namespace questbench
