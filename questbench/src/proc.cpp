#include "proc.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace questbench {
namespace {

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

std::optional<Cpu_times> parse_proc_stat(std::string_view text,
                                         long ticks_per_second) {
  const auto close = text.rfind(')');
  if (close == std::string_view::npos || ticks_per_second <= 0) {
    return std::nullopt;
  }
  text.remove_prefix(close + 1);
  // Fields after the command name start at field 3 (state): utime is the
  // 12th of them, stime the 13th.
  std::uint64_t values[2] = {0, 0};
  int field = 2;
  std::size_t pos = 0;
  while (pos < text.size() && field < 15) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ' ' && text[pos] != '\n') ++pos;
    if (start == pos) break;
    ++field;
    if (field == 14 || field == 15) {
      const auto [end, error] = std::from_chars(
          text.data() + start, text.data() + pos, values[field - 14]);
      if (error != std::errc{} || end != text.data() + pos) {
        return std::nullopt;
      }
    }
  }
  if (field < 15) return std::nullopt;
  const auto ticks = static_cast<double>(ticks_per_second);
  return Cpu_times{static_cast<double>(values[0]) / ticks,
                   static_cast<double>(values[1]) / ticks};
}

std::optional<std::uint64_t> parse_vm_hwm_kb(std::string_view status_text) {
  constexpr std::string_view key = "VmHWM:";
  std::size_t at = status_text.find(key);
  while (at != std::string_view::npos && at != 0 &&
         status_text[at - 1] != '\n') {
    at = status_text.find(key, at + 1);
  }
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t pos = at + key.size();
  while (pos < status_text.size() &&
         (status_text[pos] == ' ' || status_text[pos] == '\t')) {
    ++pos;
  }
  std::uint64_t kb = 0;
  const auto [end, error] = std::from_chars(
      status_text.data() + pos, status_text.data() + status_text.size(), kb);
  if (error != std::errc{} || end == status_text.data() + pos) {
    return std::nullopt;
  }
  return kb;
}

std::optional<Cpu_times> read_cpu_times(pid_t pid) {
  const auto text = slurp("/proc/" + std::to_string(pid) + "/stat");
  if (!text) return std::nullopt;
  return parse_proc_stat(*text, ::sysconf(_SC_CLK_TCK));
}

std::optional<std::uint64_t> read_vm_hwm_kb(pid_t pid) {
  const auto text = slurp("/proc/" + std::to_string(pid) + "/status");
  if (!text) return std::nullopt;
  return parse_vm_hwm_kb(*text);
}

Cpu_times self_cpu_times() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

}  // namespace questbench
