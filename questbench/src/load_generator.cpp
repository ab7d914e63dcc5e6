#include "load_generator.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "checker.hpp"
#include "event_scan.hpp"

namespace questbench {
namespace {

/// How long a phase waits for answers after its last send.
constexpr std::int64_t k_drain_ns = 10'000'000'000;
constexpr std::size_t k_max_logged = 10;
constexpr std::uint64_t k_timer_tag = ~std::uint64_t{0};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to port " +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Parses "<phase>.<index>".
bool parse_id(std::string_view id, std::uint32_t& phase,
              std::uint32_t& index) {
  const auto dot = id.find('.');
  if (dot == std::string_view::npos) return false;
  const auto a = std::from_chars(id.data(), id.data() + dot, phase);
  const auto b =
      std::from_chars(id.data() + dot + 1, id.data() + id.size(), index);
  return a.ec == std::errc{} && a.ptr == id.data() + dot &&
         b.ec == std::errc{} && b.ptr == id.data() + id.size();
}

}  // namespace

struct Load_generator::Phase {
  Mode mode = Mode::list;
  std::uint32_t number = 0;
  std::uint64_t stream = 0;
  double rate = 0.0;
  std::uint64_t total = 0;
  std::size_t connections = 0;
  std::size_t window = 1;
  const std::vector<Op>* list = nullptr;
  std::uint64_t next = 0;
  std::size_t outstanding = 0;
  Phase_result result;
};

Load_generator::Load_generator(const Workload& workload, int port,
                         std::size_t connections)
    : workload_(workload) {
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_ < 0 || timer_ < 0) {
    throw std::runtime_error("epoll/timerfd unavailable");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = k_timer_tag;
  ::epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &event);
  connections_.resize(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    const int fd = connect_to(port);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    connections_[c].fd = fd;
    epoll_event readable{};
    readable.events = EPOLLIN;
    readable.data.u64 = c;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &readable);
  }
}

Load_generator::~Load_generator() {
  for (auto& connection : connections_) {
    if (connection.fd >= 0) ::close(connection.fd);
  }
  if (timer_ >= 0) ::close(timer_);
  if (epoll_ >= 0) ::close(epoll_);
}

Phase_result Load_generator::run_open(std::uint64_t stream, double rate,
                                   double seconds) {
  Phase phase;
  phase.mode = Mode::open;
  phase.stream = stream;
  phase.rate = rate;
  phase.total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  phase.connections = connections_.size();
  return run(phase);
}

Phase_result Load_generator::run_closed(std::uint64_t stream, std::size_t window,
                                     double seconds) {
  Phase phase;
  phase.mode = Mode::closed;
  phase.stream = stream;
  phase.connections = connections_.size();
  phase.window = window;
  phase.result.start_ns = now_ns();
  phase.result.end_ns =
      phase.result.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  return run(phase);
}

Phase_result Load_generator::run_list(const std::vector<Op>& ops,
                                   std::size_t connections,
                                   std::size_t window) {
  Phase phase;
  phase.mode = Mode::list;
  phase.list = &ops;
  phase.connections = std::min(connections, connections_.size());
  phase.window = window;
  phase.result.start_ns = now_ns();
  return run(phase);
}

void Load_generator::send_next(Phase& phase, std::uint32_t connection,
                            std::int64_t due) {
  const std::uint64_t next = phase.next++;
  send_op(phase, connection, due,
          phase.list != nullptr ? (*phase.list)[next]
                                : workload_.op(phase.stream, next));
}

void Load_generator::send_op(Phase& phase, std::uint32_t connection,
                          std::int64_t due, const Op& op) {
  const auto index = static_cast<std::uint32_t>(phase.result.ops.size());
  Connection& conn = connections_[connection];
  const std::int64_t now = now_ns();
  Op_record record;
  record.kind = op.kind;
  record.instance = op.instance;
  record.connection = connection;
  record.due_ns = due != 0 ? due : now;
  record.sent_ns = now;
  phase.result.ops.push_back(record);
  if (op.kind == Op_kind::read) {
    conn.out.append(k_read_head);
    conn.out.append(std::to_string(phase.number));
    conn.out.push_back('.');
    conn.out.append(std::to_string(index));
    conn.out.append(op.line);
  } else {
    conn.out.append(op.line);
    conn.writes[op.ack_key].push_back(index);
  }
  conn.out.push_back('\n');
  ++conn.in_flight;
  ++phase.outstanding;
  flush(conn);
}

void Load_generator::flush(Connection& conn) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                             conn.out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EAGAIN (wait for EPOLLOUT) or a dead peer (answers go missing)
    }
  }
  conn.out.erase(0, sent);
  const bool want_write = !conn.out.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    epoll_event event{};
    event.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    event.data.u64 = static_cast<std::uint64_t>(&conn - connections_.data());
    ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &event);
  }
}

Phase_result Load_generator::run(Phase& phase) {
  phase.number = phase_number_++;
  for (auto& conn : connections_) {
    conn.in_flight = 0;
    conn.writes.clear();
  }
  if (phase.mode == Mode::open) {
    phase.result.start_ns = now_ns() + 1'000'000;
    phase.result.end_ns =
        due_time_ns(phase.result.start_ns, phase.rate, phase.total);
  } else {
    const std::size_t limit =
        phase.list != nullptr ? phase.list->size() : ~std::size_t{0};
    for (std::size_t w = 0; w < phase.window; ++w) {
      for (std::uint32_t c = 0; c < phase.connections; ++c) {
        if (phase.next < limit) send_next(phase, c, 0);
      }
    }
  }

  std::int64_t drain_deadline = 0;
  std::int64_t next_tick = 0;
  if (tick_) {
    const std::int64_t start = std::max(now_ns(), phase.result.start_ns);
    tick_(start);
    next_tick = tick_period_ns_ > 0 ? start + tick_period_ns_ : 0;
  }
  epoll_event events[16];
  for (;;) {
    std::int64_t now = now_ns();
    if (next_tick != 0 && now >= next_tick) {
      tick_(now);
      next_tick += tick_period_ns_;
    }
    bool sending = false;
    if (phase.mode == Mode::open) {
      while (phase.next < phase.total) {
        const std::int64_t due =
            due_time_ns(phase.result.start_ns, phase.rate, phase.next);
        if (due > now) break;
        send_next(phase,
                  static_cast<std::uint32_t>(phase.next % phase.connections),
                  due);
      }
      sending = phase.next < phase.total;
    } else if (phase.mode == Mode::closed) {
      sending = now < phase.result.end_ns;
    } else {
      sending = phase.next < phase.list->size();
    }
    if (!sending && phase.outstanding == 0) break;
    if (!sending && drain_deadline == 0) drain_deadline = now + k_drain_ns;
    if (drain_deadline != 0 && now >= drain_deadline) break;

    int timeout_ms = -1;
    const auto wait_until = [&](std::int64_t deadline) {
      if (next_tick != 0) deadline = std::min(deadline, next_tick);
      return static_cast<int>(std::max<std::int64_t>(deadline - now, 0) /
                                  1'000'000 +
                              1);
    };
    if (phase.mode == Mode::open && sending) {
      itimerspec at{};
      const std::int64_t due =
          due_time_ns(phase.result.start_ns, phase.rate, phase.next);
      at.it_value.tv_sec = due / 1'000'000'000;
      at.it_value.tv_nsec = due % 1'000'000'000;
      ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &at, nullptr);
      if (next_tick != 0) timeout_ms = wait_until(next_tick);
    } else if (phase.mode == Mode::closed && sending) {
      timeout_ms = wait_until(phase.result.end_ns);
    } else if (drain_deadline != 0) {
      timeout_ms = wait_until(drain_deadline);
    } else if (next_tick != 0) {
      timeout_ms = wait_until(next_tick);
    }
    const int ready = ::epoll_wait(epoll_, events, 16, timeout_ms);
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == k_timer_tag) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_, &expirations, sizeof expirations);
        continue;
      }
      if (events[i].events & EPOLLOUT) flush(connections_[tag]);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        on_readable(phase, static_cast<std::uint32_t>(tag));
      }
    }
  }
  if (tick_) tick_(now_ns());
  for (auto& record : phase.result.ops) {
    if (record.status == Op_status::pending) record.status = Op_status::missing;
  }
  return std::move(phase.result);
}

void Load_generator::on_readable(Phase& phase, std::uint32_t connection) {
  Connection& conn = connections_[connection];
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buffer) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n == 0) {
        // The server closed the connection: whatever is outstanding on
        // it stays unanswered and is counted missing.
        ::epoll_ctl(epoll_, EPOLL_CTL_DEL, conn.fd, nullptr);
      }
      break;
    }
  }
  const std::int64_t now = now_ns();
  std::size_t start = 0;
  for (;;) {
    const auto newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    on_line(phase, connection,
            std::string_view(conn.in).substr(start, newline - start), now);
    start = newline + 1;
  }
  conn.in.erase(0, start);
}

void Load_generator::on_line(Phase& phase, std::uint32_t connection,
                          std::string_view line, std::int64_t now) {
  auto& ops = phase.result.ops;
  const auto event = scan_string(line, "event");
  if (!event) {
    ++phase.result.unmatched_events;
    return;
  }
  if (*event == "registered" || *event == "observed" || *event == "refit") {
    const auto key = scan_string(line, *event == "registered" ? "name"
                                                               : "fingerprint");
    auto& writes = connections_[connection].writes;
    const auto pending = key ? writes.find(std::string(*key)) : writes.end();
    if (pending == writes.end() || pending->second.empty()) {
      ++phase.result.unmatched_events;
      return;
    }
    const std::uint32_t index = pending->second.front();
    pending->second.erase(pending->second.begin());
    Op_record& record = ops[index];
    ++record.events;
    record.bytes += static_cast<std::uint32_t>(line.size() + 1);
    Op_status status = Op_status::ok;
    if (*event == "registered") {
      const Bench_instance* target = workload_.find(*key);
      const auto fingerprint = scan_string(line, "fingerprint");
      if (target == nullptr || !fingerprint ||
          *fingerprint != target->fingerprint_hex) {
        status = Op_status::incorrect;
        if (incorrect_.size() < k_max_logged) {
          incorrect_.push_back("register: fingerprint differs from the "
                               "client's: " + std::string(line));
        }
      }
    }
    complete(phase, index, status, now);
    return;
  }

  std::uint32_t phase_number = 0, index = 0;
  const auto id = scan_string(line, "id");
  if (!id || !parse_id(*id, phase_number, index) ||
      phase_number != phase.number || index >= ops.size()) {
    ++phase.result.unmatched_events;
    if (*event == "error" && errors_.size() < k_max_logged) {
      errors_.emplace_back(line);
    }
    return;
  }
  Op_record& record = ops[index];
  if (record.status != Op_status::pending) {
    ++phase.result.unmatched_events;
    return;
  }
  ++record.events;
  record.bytes += static_cast<std::uint32_t>(line.size() + 1);
  if (*event == "admitted") {
    record.admitted_ns = now;
    if (const auto depth = scan_number(line, "queue_depth")) {
      record.queue_depth = static_cast<std::int32_t>(*depth);
    }
  } else if (*event == "result") {
    record.elapsed_seconds = scan_number(line, "elapsed_seconds").value_or(0.0);
    record.engine_threads = static_cast<std::uint32_t>(
        scan_number(line, "engine_threads").value_or(0.0));
    record.cached = scan_bool(line, "cached").value_or(false);
    const Bench_instance& target = workload_.instances()[record.instance];
    if (!scan_uint_array(line, "plan", plan_buffer_)) plan_buffer_.clear();
    const Verdict verdict =
        check_result(target.doc.instance, target.precedence(), target.optimum,
                     plan_buffer_, scan_number(line, "cost"));
    if (verdict != Verdict::ok && incorrect_.size() < k_max_logged) {
      incorrect_.push_back(std::string(to_string(verdict)) + " on " +
                           target.name + " (optimum " +
                           std::to_string(target.optimum) +
                           "): " + std::string(line));
    }
    complete(phase, index,
             verdict == Verdict::ok ? Op_status::ok : Op_status::incorrect,
             now);
  } else if (*event == "error") {
    if (errors_.size() < k_max_logged) errors_.emplace_back(line);
    complete(phase, index, Op_status::error, now);
  }
}

void Load_generator::complete(Phase& phase, std::uint32_t index,
                           Op_status status, std::int64_t now) {
  Op_record& record = phase.result.ops[index];
  record.status = status;
  record.done_ns = now;
  --phase.outstanding;
  Connection& conn = connections_[record.connection];
  --conn.in_flight;
  if (trace_ != nullptr && record.kind == Op_kind::read) {
    const std::int32_t root =
        trace_->add("client.request", record.due_ns, now, -1, index);
    trace_->add("client.send_delay", record.due_ns, record.sent_ns, root,
                index);
    if (record.admitted_ns != 0) {
      trace_->add("serve.tcp.admit", record.sent_ns, record.admitted_ns, root,
                  index);
      const std::int64_t engine_start = std::max(
          record.admitted_ns,
          now - static_cast<std::int64_t>(record.elapsed_seconds * 1e9));
      trace_->add("serve.server.queue", record.admitted_ns, engine_start, root,
                  index);
      trace_->add("core.engine", engine_start, now, root, index);
    }
  }
  const bool refill =
      (phase.mode == Mode::closed && now < phase.result.end_ns) ||
      (phase.mode == Mode::list && phase.next < phase.list->size());
  if (refill) send_next(phase, record.connection, 0);
}

quest::io::Json fetch_stats(int port) {
  const int fd = connect_to(port);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::string request = "{\"op\":\"stats\"}\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    throw std::runtime_error("cannot send a stats op");
  }
  std::string in;
  char buffer[65536];
  for (;;) {
    const auto newline = in.find('\n');
    if (newline != std::string::npos) {
      const std::string line = in.substr(0, newline);
      in.erase(0, newline + 1);
      if (scan_string(line, "event") == std::string_view("stats")) {
        ::close(fd);
        return quest::io::Json::parse(line);
      }
      continue;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("no stats event from port " +
                               std::to_string(port));
    }
    in.append(buffer, static_cast<std::size_t>(n));
  }
}

}  // namespace questbench
