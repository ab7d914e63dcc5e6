#include "fleet.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "event_scan.hpp"

namespace questbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto k_listen_timeout = std::chrono::seconds(20);
constexpr auto k_stop_grace = std::chrono::seconds(15);

/// Sends {"op":"shutdown"} and reads until the server closes the
/// connection, so the op is processed before the socket goes away.
void send_shutdown(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::string op = "{\"op\":\"shutdown\"}\n";
  const bool sent =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) == 0 &&
      ::send(fd, op.data(), op.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(op.size());
  char buffer[4096];
  while (sent && ::recv(fd, buffer, sizeof buffer, 0) > 0) {
  }
  ::close(fd);
  if (!sent) throw std::runtime_error("cannot send the shutdown op");
}

}  // namespace

Fleet::Fleet(const Workload_spec& spec, const std::string& bin_dir,
             const std::string& run_dir)
    : run_dir_(run_dir) {
  try {
    for (std::size_t b = 0; b < spec.backends; ++b) {
      std::vector<std::string> argv = {
          bin_dir + "/quest_serve", "--tcp-port", "0", "--workers",
          std::to_string(spec.backend_workers)};
      if (spec.snapshots) {
        const std::string path =
            run_dir + "/backend" + std::to_string(b) + ".qsnap";
        std::remove(path.c_str());
        argv.insert(argv.end(), {"--snapshot-path", path,
                                 "--snapshot-interval-ms", "1000"});
      }
      spawn("backend" + std::to_string(b), std::move(argv));
    }
    for (auto& process : processes_) await_listening(process);
    if (spec.router_replicas > 0) {
      std::string backends;
      for (const int port : backend_ports()) {
        if (!backends.empty()) backends += ",";
        backends += "127.0.0.1:" + std::to_string(port);
      }
      await_listening(spawn(
          "router", {bin_dir + "/quest_router", "--tcp-port", "0",
                     "--backends", backends, "--replicas",
                     std::to_string(spec.router_replicas)}));
    }
  } catch (...) {
    stop();
    throw;
  }
}

Fleet::~Fleet() { stop(); }

Process& Fleet::spawn(std::string role, std::vector<std::string> argv) {
  Process process;
  process.role = std::move(role);
  process.argv = std::move(argv);
  process.log_path = run_dir_ + "/" + process.role + ".log";
  const int log = ::open(process.log_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) {
    throw std::runtime_error("cannot create " + process.log_path);
  }
  std::vector<char*> args;
  for (auto& arg : process.argv) args.push_back(arg.data());
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDONLY);
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  if (pid < 0) throw std::runtime_error("fork failed");
  process.pid = pid;
  processes_.push_back(std::move(process));
  return processes_.back();
}

void Fleet::await_listening(Process& process) {
  const auto deadline = Clock::now() + k_listen_timeout;
  for (;;) {
    std::ifstream in(process.log_path);
    std::string line;
    if (std::getline(in, line) && !in.eof()) {
      const auto event = scan_string(line, "event");
      const auto port = scan_number(line, "port");
      if (!event || *event != "listening" || !port) {
        throw std::runtime_error(process.role + " did not announce a port: " +
                                 line);
      }
      process.port = static_cast<int>(*port);
      return;
    }
    int status = 0;
    if (::waitpid(process.pid, &status, WNOHANG) == process.pid) {
      process.status = status;
      process.pid = -1;
      throw std::runtime_error(process.role + " exited during start-up (see " +
                               process.log_path + ")");
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error(process.role + " did not start listening");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int Fleet::client_port() const {
  const Process* front = router();
  return front != nullptr ? front->port : processes_.front().port;
}

std::vector<int> Fleet::backend_ports() const {
  std::vector<int> ports;
  for (const auto& process : processes_) {
    if (process.role != "router") ports.push_back(process.port);
  }
  return ports;
}

const Process* Fleet::router() const {
  for (const auto& process : processes_) {
    if (process.role == "router") return &process;
  }
  return nullptr;
}

bool Fleet::stop() {
  if (stopped_ || processes_.empty()) return true;
  stopped_ = true;
  // The documented clean stop: a shutdown op to the client-facing
  // process, which through quest_router takes the whole fleet down.
  bool clean = true;
  try {
    send_shutdown(client_port());
  } catch (const std::exception&) {
    clean = false;
  }
  const auto reap = [&](Clock::time_point deadline) {
    for (auto& process : processes_) {
      if (process.pid <= 0) continue;
      int status = 0;
      while (::waitpid(process.pid, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      process.status = status;
      process.pid = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
    }
  };
  reap(Clock::now() + k_stop_grace);
  for (auto& process : processes_) {
    if (process.pid <= 0) continue;
    clean = false;
    ::kill(process.pid, SIGKILL);
    ::waitpid(process.pid, &process.status, 0);
    process.pid = -1;
  }
  return clean;
}

}  // namespace questbench
