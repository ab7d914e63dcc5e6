// The native load generator: one thread, one epoll loop over at most
// four client connections, driving one phase at a time.
//
//  * Open loop: op i is due at start + i / rate whatever the server is
//    doing, and its latency runs from that due time to its answer (wrk2,
//    Tene's "How NOT to measure latency"), so a stall shows on every op
//    scheduled behind it. How late the generator actually sent each op is
//    recorded separately.
//  * Closed loop: each connection keeps `window` ops in flight and sends
//    the next one when one is answered; latency runs from the send.
//  * List: a fixed list of ops (registration, warm-up), `window` in
//    flight per connection, until every op is answered.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "quest/io/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace questbench {

enum class Op_status : std::uint8_t { pending, ok, error, incorrect, missing };

/// What the client saw of one op.
struct Op_record {
  Op_kind kind = Op_kind::read;
  Op_status status = Op_status::pending;
  bool cached = false;
  std::uint32_t instance = 0;
  std::uint32_t connection = 0;
  /// Scheduled send (open loop) or the send itself (other modes).
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  /// "admitted" event (reads).
  std::int64_t admitted_ns = 0;
  /// "result" event (reads) or the write's acknowledgement.
  std::int64_t done_ns = 0;
  /// Events and bytes (with newlines) the server sent for this op.
  std::uint32_t events = 0;
  std::uint32_t bytes = 0;
  std::int32_t queue_depth = -1;
  /// From the result event: engine wall time and engine threads.
  double elapsed_seconds = 0.0;
  std::uint32_t engine_threads = 0;

  double latency_ms() const noexcept {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
  double late_ms() const noexcept {
    return static_cast<double>(sent_ns - due_ns) * 1e-6;
  }
};

/// Due time of op `index` in an open-loop phase.
inline std::int64_t due_time_ns(std::int64_t start_ns, double rate,
                                std::uint64_t index) {
  return start_ns +
         static_cast<std::int64_t>(static_cast<double>(index) * 1e9 / rate);
}

struct Phase_result {
  std::vector<Op_record> ops;
  /// The measured window: the phase's first due time to the end of its
  /// schedule (open) or duration (closed).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Events the client could not attribute to an op of this phase.
  std::uint64_t unmatched_events = 0;
};

class Load_generator {
 public:
  /// Opens `connections` client connections to 127.0.0.1:`port`.
  Load_generator(const Workload& workload, int port, std::size_t connections);
  ~Load_generator();

  Load_generator(const Load_generator&) = delete;
  Load_generator& operator=(const Load_generator&) = delete;

  /// When set, every answered read adds its span tree to `log`.
  void set_trace(Span_log* log) noexcept { trace_ = log; }
  /// While a phase runs, calls `tick` on the loop thread at its start,
  /// about every `period_ns`, and once more when it ends (e.g. to sample
  /// the servers' CPU per window). A period of 0 ticks at start and end.
  void set_ticker(std::int64_t period_ns,
                  std::function<void(std::int64_t now)> tick) {
    tick_period_ns_ = period_ns;
    tick_ = std::move(tick);
  }

  Phase_result run_open(std::uint64_t stream, double rate, double seconds);
  Phase_result run_closed(std::uint64_t stream, std::size_t window,
                          double seconds);
  /// Sends `ops` over the first `connections` connections (at most
  /// `window` in flight on each) and waits for every answer.
  Phase_result run_list(const std::vector<Op>& ops, std::size_t connections,
                        std::size_t window);

  /// Incorrect answers seen so far, described for the log.
  const std::vector<std::string>& incorrect() const noexcept {
    return incorrect_;
  }
  /// First protocol errors seen so far.
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  enum class Mode { open, closed, list };
  struct Connection {
    int fd = -1;
    std::string in;
    std::string out;
    bool want_write = false;
    std::size_t in_flight = 0;
    /// Unacknowledged writes by ack key, oldest first.
    std::unordered_map<std::string, std::vector<std::uint32_t>> writes;
  };
  struct Phase;

  Phase_result run(Phase& phase);
  /// Sends the phase's next op (from its list or the workload's stream).
  void send_next(Phase& phase, std::uint32_t connection, std::int64_t due);
  void send_op(Phase& phase, std::uint32_t connection, std::int64_t due,
               const Op& op);
  void flush(Connection& connection);
  void on_readable(Phase& phase, std::uint32_t connection);
  void on_line(Phase& phase, std::uint32_t connection, std::string_view line,
               std::int64_t now);
  void complete(Phase& phase, std::uint32_t index, Op_status status,
                std::int64_t now);

  const Workload& workload_;
  std::vector<Connection> connections_;
  int epoll_ = -1;
  int timer_ = -1;
  std::uint32_t phase_number_ = 0;
  Span_log* trace_ = nullptr;
  std::int64_t tick_period_ns_ = 0;
  std::function<void(std::int64_t)> tick_;
  std::vector<std::string> incorrect_;
  std::vector<std::string> errors_;
  std::vector<std::uint32_t> plan_buffer_;
};

/// Sends {"op":"stats"} on a fresh connection and returns the parsed
/// "stats" event. Throws std::runtime_error on failure.
quest::io::Json fetch_stats(int port);

}  // namespace questbench
