// Reading a process's resource use from /proc, from outside the process.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <sys/types.h>

namespace questbench {

/// CPU time of a whole process (all threads), in seconds.
struct Cpu_times {
  double user = 0.0;
  double sys = 0.0;
  double total() const noexcept { return user + sys; }
};

/// Parses the text of /proc/<pid>/stat: utime and stime are fields 14
/// and 15, counted after the parenthesised command name (which may hold
/// spaces and parentheses, so the last ')' ends it). `ticks_per_second`
/// is sysconf(_SC_CLK_TCK).
std::optional<Cpu_times> parse_proc_stat(std::string_view text,
                                         long ticks_per_second);

/// Parses the "VmHWM:" line (peak resident set, kB) of /proc/<pid>/status.
std::optional<std::uint64_t> parse_vm_hwm_kb(std::string_view status_text);

/// Reads and parses /proc/<pid>/stat; nullopt once the process is gone.
std::optional<Cpu_times> read_cpu_times(pid_t pid);
/// Reads VmHWM of a live process, in kB.
std::optional<std::uint64_t> read_vm_hwm_kb(pid_t pid);
/// CPU time of this process so far (getrusage).
Cpu_times self_cpu_times();

}  // namespace questbench
