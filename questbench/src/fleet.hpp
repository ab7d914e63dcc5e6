// Starting and stopping the quest processes of one workload set-up.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "workloads.hpp"

namespace questbench {

/// One spawned quest_serve or quest_router.
struct Process {
  std::string role;
  std::vector<std::string> argv;
  pid_t pid = -1;
  int port = 0;
  std::string log_path;
  /// Exit status from waitpid, once stopped.
  int status = -1;
};

/// The processes of one set-up: the workload's backends, and
/// quest_router in front of them when the workload has one. Children die
/// with the benchmark (PR_SET_PDEATHSIG), and the destructor stops any
/// still running, so no process outlives a run.
class Fleet {
 public:
  /// Spawns every process and waits for each "listening" line. Throws
  /// std::runtime_error when a process fails to start or announce.
  /// `bin_dir` holds quest_serve and quest_router; logs and snapshots go
  /// under `run_dir`, which must exist.
  Fleet(const Workload_spec& spec, const std::string& bin_dir,
        const std::string& run_dir);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The port clients connect to: the router's, else the only backend's.
  int client_port() const;
  /// Backend ports in --backends order (the order store::Shard_map uses).
  std::vector<int> backend_ports() const;
  const std::vector<Process>& processes() const noexcept { return processes_; }
  /// The router, or nullptr.
  const Process* router() const;

  /// Sends a shutdown op to the client-facing process (quest_router
  /// forwards it to every backend), then reaps each process within a
  /// grace period, SIGKILLing stragglers. Returns false when a process had
  /// to be killed or exited non-zero. Idempotent.
  bool stop();

 private:
  Process& spawn(std::string role, std::vector<std::string> argv);
  void await_listening(Process& process);

  std::string run_dir_;
  std::vector<Process> processes_;
  bool stopped_ = false;
};

}  // namespace questbench
