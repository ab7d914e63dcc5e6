// Self-tests of quest-bench's own measurement code: the percentile rule,
// open-loop lateness accounting (against a scripted server that stalls),
// the /proc parsers, the event scanner and the correctness checker.
//
//   quest_bench_selftest      # exit 0 when every check passes

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "checker.hpp"
#include "event_scan.hpp"
#include "load_generator.hpp"
#include "proc.hpp"
#include "quest/model/cost.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(condition)                                                  \
  do {                                                                    \
    if (!(condition)) {                                                   \
      ++failures;                                                         \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: "      \
                << #condition << "\n";                                    \
    }                                                                     \
  } while (0)

using namespace questbench;

void percentile_rule() {
  // p99 is reported as such once ten samples lie beyond it.
  CHECK(tail_index(1000) == 989);
  CHECK(tail_index(5000) == 4949);
  // Below 1000 samples the tail drops to the highest percentile that
  // keeps ten beyond: 100 samples give the 90th.
  CHECK(tail_index(100) == 89);
  CHECK(tail_index(11) == 0);
  for (std::size_t n = 11; n <= 3000; ++n) {
    const std::size_t index = tail_index(n);
    CHECK(n - 1 - index >= k_tail_margin);
    CHECK(index <= static_cast<std::size_t>(std::ceil(0.99 * n)) - 1);
    // No higher index keeps the margin unless it passes the 99th.
    if (index + 1 <= static_cast<std::size_t>(std::ceil(0.99 * n)) - 1) {
      CHECK(n - 2 - index < k_tail_margin);
    }
  }
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(101 - i);
  const Summary s = summarize(values);
  CHECK(s.samples == 100);
  CHECK(s.p50 == 50.0);
  CHECK(s.tail == 90.0);
  CHECK(s.tail_percentile == 90.0);
  CHECK(summarize(std::vector<double>(10, 1.0)).tail_percentile == 0.0);
  CHECK(summarize({}).samples == 0);
  // Quiet windows: the best quarter's edge, from either end.
  const std::vector<double> windows = {9, 1, 8, 2, 7, 3, 6, 4};
  CHECK(quiet(windows, false) == 2.0);
  CHECK(quiet(windows, true) == 7.0);
  CHECK(quiet({5.0}, false) == 5.0);
}

void proc_parsers() {
  const std::string stat =
      "4242 (quest serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
      "250 130 0 0 20 0 5 0 12345 1000000 500 18446744073709551615\n";
  const auto times = parse_proc_stat(stat, 100);
  CHECK(times.has_value());
  if (times) {
    CHECK(times->user == 2.5);
    CHECK(times->sys == 1.3);
  }
  CHECK(!parse_proc_stat("4242 (truncated) S 1 2 3", 100).has_value());
  CHECK(!parse_proc_stat("no parenthesis at all", 100).has_value());
  CHECK(!parse_proc_stat(stat, 0).has_value());
  const auto own = read_cpu_times(::getpid());
  CHECK(own.has_value() && own->user >= 0.0 && own->sys >= 0.0);

  const std::string status =
      "Name:\tquest_serve\nVmPeak:\t  99999 kB\nVmHWM:\t    5120 kB\n"
      "VmRSS:\t    4096 kB\n";
  CHECK(parse_vm_hwm_kb(status) == std::optional<std::uint64_t>(5120));
  CHECK(!parse_vm_hwm_kb("Name:\tx\nXVmHWM:\t1 kB\n").has_value());
  CHECK(read_vm_hwm_kb(::getpid()).value_or(0) > 0);
}

void event_scanner() {
  const std::string result =
      R"({"event":"result","id":"3.17","termination":"optimal","cost":1.25,)"
      R"("plan":[2,0,1],"proven_optimal":true,"cached":false,)"
      R"("warm_cost":9.5,"elapsed_seconds":2.5e-05,)"
      R"("stats":{"nodes_expanded":120,"engine_threads":0}})";
  CHECK(scan_string(result, "event") == std::optional<std::string_view>("result"));
  CHECK(scan_string(result, "id") == std::optional<std::string_view>("3.17"));
  CHECK(scan_number(result, "cost") == std::optional<double>(1.25));
  CHECK(scan_number(result, "warm_cost") == std::optional<double>(9.5));
  CHECK(scan_number(result, "elapsed_seconds") ==
        std::optional<double>(2.5e-05));
  CHECK(scan_number(result, "nodes_expanded") == std::optional<double>(120));
  CHECK(scan_bool(result, "cached") == std::optional<bool>(false));
  CHECK(scan_bool(result, "proven_optimal") == std::optional<bool>(true));
  std::vector<std::uint32_t> plan;
  CHECK(scan_uint_array(result, "plan", plan));
  CHECK((plan == std::vector<std::uint32_t>{2, 0, 1}));
  CHECK(!scan_number(R"({"cost":null})", "cost").has_value());
  CHECK(!scan_string(result, "missing").has_value());
  CHECK(!scan_uint_array(R"({"plan":[1,2)", "plan", plan));
  CHECK(scan_string(R"({"message":"a \"quoted\" word","id":"x"})", "message") ==
        std::optional<std::string_view>(R"(a \"quoted\" word)"));
  // %.17g text parses back to the identical double.
  const double awkward = 0.1 + 0.2;
  char text[64];
  std::snprintf(text, sizeof text, R"({"cost":%.17g})", awkward);
  CHECK(std::bit_cast<std::uint64_t>(scan_number(text, "cost").value_or(0)) ==
        std::bit_cast<std::uint64_t>(awkward));
}

void correctness_checker(const Workload& workload) {
  for (const auto& entry : workload.instances()) {
    const auto& instance = entry.doc.instance;
    std::vector<std::uint32_t> plan(entry.optimum_plan.begin(),
                                    entry.optimum_plan.end());
    const double cost =
        quest::model::bottleneck_cost(instance, entry.optimum_plan);
    CHECK(check_result(instance, entry.precedence(), entry.optimum, plan,
                       cost) == Verdict::ok);
    // A deliberately wrong cost: one ulp off the plan's true cost.
    CHECK(check_result(instance, entry.precedence(), entry.optimum, plan,
                       std::nextafter(cost, 1e300)) ==
          Verdict::cost_not_reproduced);
    CHECK(check_result(instance, entry.precedence(), entry.optimum, plan,
                       std::nullopt) == Verdict::missing_cost);
    auto repeated = plan;
    repeated[1] = repeated[0];
    CHECK(check_result(instance, entry.precedence(), entry.optimum, repeated,
                       cost) == Verdict::not_permutation);
    auto shorter = plan;
    shorter.pop_back();
    CHECK(check_result(instance, entry.precedence(), entry.optimum, shorter,
                       cost) == Verdict::not_permutation);
  }
  // A valid plan that is not optimal, reported with its own true cost.
  int suboptimal_seen = 0;
  for (const auto& entry : workload.instances()) {
    if (entry.precedence() != nullptr) continue;
    std::vector<std::uint32_t> reversed(entry.optimum_plan.order().rbegin(),
                                        entry.optimum_plan.order().rend());
    const double cost = quest::model::bottleneck_cost(
        entry.doc.instance,
        quest::model::Plan(std::vector<quest::model::Service_id>(
            reversed.begin(), reversed.end())));
    if (matches_optimum(cost, entry.optimum)) continue;
    ++suboptimal_seen;
    CHECK(check_result(entry.doc.instance, nullptr, entry.optimum, reversed,
                       cost) == Verdict::not_optimal);
  }
  CHECK(suboptimal_seen > 0);
  // The credit family's precedence edge (service 0 before service 5).
  for (const auto& entry : workload.instances()) {
    if (entry.precedence() == nullptr) continue;
    std::vector<std::uint32_t> plan;
    plan.push_back(5);
    for (std::uint32_t s = 0; s < entry.doc.instance.size(); ++s) {
      if (s != 5) plan.push_back(s);
    }
    CHECK(check_result(entry.doc.instance, entry.precedence(), entry.optimum,
                       plan, 0.0) == Verdict::violates_precedence);
  }
}

/// A scripted quest_serve stand-in: reads requests on one connection,
/// sleeps `stall_ms` before reading anything, then answers each optimize
/// with "admitted" and a result carrying the instance's optimal plan and
/// its cost (or, with `wrong_cost`, a cost one ulp off it).
class Scripted_server {
 public:
  Scripted_server(const Workload& workload, int stall_ms, bool wrong_cost)
      : workload_(workload), stall_ms_(stall_ms), wrong_cost_(wrong_cost) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listener_, reinterpret_cast<sockaddr*>(&address), sizeof address);
    ::listen(listener_, 4);
    socklen_t length = sizeof address;
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~Scripted_server() {
    thread_.join();
    ::close(listener_);
  }
  Scripted_server(const Scripted_server&) = delete;
  Scripted_server& operator=(const Scripted_server&) = delete;
  int port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listener_, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    std::string in;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      in.append(buffer, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = in.find('\n')) != std::string::npos) {
        const std::string line = in.substr(0, newline);
        in.erase(0, newline + 1);
        answer(fd, line);
      }
    }
    ::close(fd);
  }
  void answer(int fd, const std::string& line) {
    const std::string id(scan_string(line, "id").value_or(""));
    const Bench_instance* entry =
        workload_.find(scan_string(line, "instance").value_or(""));
    if (entry == nullptr) return;
    double cost = quest::model::bottleneck_cost(entry->doc.instance,
                                                entry->optimum_plan);
    if (wrong_cost_) cost = std::nextafter(cost, 1e300);
    std::string plan;
    for (const auto s : entry->optimum_plan) {
      if (!plan.empty()) plan += ',';
      plan += std::to_string(s);
    }
    char text[512];
    std::snprintf(text, sizeof text,
                  R"({"event":"admitted","id":"%s","queue_depth":0})"
                  "\n"
                  R"({"event":"result","id":"%s","cost":%.17g,"plan":[%s],)"
                  R"("cached":false,"elapsed_seconds":1e-05})"
                  "\n",
                  id.c_str(), id.c_str(), cost, plan.c_str());
    const std::string reply = text;
    (void)!::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  }

  const Workload& workload_;
  int stall_ms_;
  bool wrong_cost_;
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

void open_loop_accounting(const Workload& workload) {
  // Due times are exact multiples of the period from the phase start.
  CHECK(due_time_ns(1000, 500.0, 0) == 1000);
  CHECK(due_time_ns(1000, 500.0, 1) == 1000 + 2'000'000);
  CHECK(due_time_ns(0, 1000.0, 1000) == 1'000'000'000);
  Op_record late;
  late.due_ns = 1'000'000;
  late.sent_ns = 4'000'000;
  late.done_ns = 5'000'000;
  CHECK(late.late_ms() == 3.0);
  CHECK(late.latency_ms() == 4.0);  // from the due time, not the send

  // The server stalls 200 ms before reading anything while the generator
  // keeps its 1000/s schedule. Ops due early in the stall must show the
  // stall in their latency (no coordinated omission), and the generator
  // itself must not have fallen behind.
  constexpr int k_stall_ms = 200;
  Scripted_server server(workload, k_stall_ms, false);
  {
    Load_generator load(workload, server.port(), 1);
    const Phase_result phase = load.run_open(0, 1000.0, 0.4);
    CHECK(phase.ops.size() == 400);
    std::size_t ok = 0;
    double first_latency = 0.0, max_late = 0.0, last_latency = 0.0;
    for (const auto& op : phase.ops) {
      ok += op.status == Op_status::ok ? 1 : 0;
      max_late = std::max(max_late, op.late_ms());
    }
    first_latency = phase.ops.front().latency_ms();
    last_latency = phase.ops.back().latency_ms();
    CHECK(ok == phase.ops.size());
    CHECK(load.incorrect().empty());
    CHECK(first_latency >= k_stall_ms * 0.9);
    CHECK(last_latency < k_stall_ms * 0.5);
    CHECK(max_late < 20.0);
  }
  // A result whose cost is one ulp off is caught as incorrect.
  Scripted_server liar(workload, 0, true);
  {
    Load_generator load(workload, liar.port(), 1);
    const Phase_result phase = load.run_open(0, 1000.0, 0.05);
    std::size_t incorrect = 0;
    for (const auto& op : phase.ops) {
      incorrect += op.status == Op_status::incorrect ? 1 : 0;
    }
    CHECK(incorrect == phase.ops.size());
    CHECK(!load.incorrect().empty());
  }
}

}  // namespace

int main() {
  const Workload workload("small-hot", 7);
  percentile_rule();
  proc_parsers();
  event_scanner();
  correctness_checker(workload);
  open_loop_accounting(workload);
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "quest_bench_selftest: all checks passed\n";
  return 0;
}
