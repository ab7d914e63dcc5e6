// quest_bench — one workload, one seed, one run.
//
//   quest_bench --workload small-hot --seed 1 --seconds 10 --trace 0
//       --bin-dir .bench_build/quest/tools --run-dir .bench_build/run
//
// Sets the workload's quest processes up several times (setup_s is the
// median), drives the last set-up with the native load generator, checks
// every answer against the benchmark's own reference optimum, and prints
// one metric per line followed, as the last line, by
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// live load runs twice at half length, untraced then traced, and the
// metrics are the per-layer ones: from the traced half's client-side
// spans, the processes' stats events and /proc, and an in-process replay
// of the same generated requests through each layer's public functions.
// Exits 1 on any incorrect answer, 2 on a usage or set-up error, 3 on a
// non-Release build.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "load_generator.hpp"
#include "proc.hpp"
#include "quest/io/json.hpp"
#include "quest/store/shard_map.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace questbench {
namespace {

constexpr int k_setups = 9;
/// Requests the router-hop probe sends each way (router, direct owner).
constexpr std::size_t k_hop_probes = 1200;
/// The client is the bottleneck when its one thread is busier than this
/// share of the measured wall time.
constexpr double k_generator_busy_limit = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string run_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "quest_bench: " << problem
            << "\nusage: quest_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --run-dir DIR [--commit SHA]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--bin-dir") {
        options.bin_dir = value;
      } else if (flag == "--run-dir") {
        options.run_dir = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty() || options.bin_dir.empty() ||
      options.run_dir.empty()) {
    usage("--workload, --bin-dir and --run-dir are required");
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 120.0)) {
    usage("--seconds must be in [1, 120]");
  }
  return options;
}

void make_dir(const std::string& path) { ::mkdir(path.c_str(), 0755); }

double cpu_mhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  double sum = 0.0;
  int count = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        sum += std::atof(line.c_str() + colon + 1);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

/// CPU of the quest processes: all of them, and the router alone.
struct Fleet_cpu {
  Cpu_times total;
  Cpu_times router;
};

Fleet_cpu read_fleet_cpu(const Fleet& fleet) {
  Fleet_cpu cpu;
  for (const auto& process : fleet.processes()) {
    const Cpu_times t = read_cpu_times(process.pid).value_or(Cpu_times{});
    cpu.total.user += t.user;
    cpu.total.sys += t.sys;
    if (process.role == "router") cpu.router = t;
  }
  return cpu;
}

Cpu_times minus(const Cpu_times& a, const Cpu_times& b) {
  return {a.user - b.user, a.sys - b.sys};
}

/// Sum of a numeric stats field over every backend.
double backend_sum(const std::vector<quest::io::Json>& stats,
                   std::string_view field, std::string_view object = {}) {
  double sum = 0.0;
  for (const auto& event : stats) {
    const quest::io::Json* where = &event;
    if (!object.empty()) where = event.find(object);
    if (where == nullptr) continue;
    if (const auto* value = where->find(field)) sum += value->as_number();
  }
  return sum;
}

std::vector<quest::io::Json> backend_stats(const Fleet& fleet) {
  std::vector<quest::io::Json> out;
  for (const int port : fleet.backend_ports()) out.push_back(fetch_stats(port));
  return out;
}

/// One pass of the live load: the open-loop phase (if the workload has
/// one), then the closed-loop phase, with CPU and stats around them.
struct Live_pass {
  std::vector<Phase_result> phases;
  bool open = false;
  Cpu_times quest_cpu;
  Cpu_times router_cpu;
  Cpu_times client_cpu;
  double wall_seconds = 0.0;
  std::vector<quest::io::Json> stats_before, stats_after;
  quest::io::Json router_stats;
  /// Quest CPU sampled at the closed-loop phase's window boundaries.
  std::vector<std::pair<std::int64_t, Cpu_times>> closed_cpu;

  const Phase_result& latency_phase() const { return phases.front(); }
  const Phase_result& closed_phase() const { return phases.back(); }

  std::size_t attempted() const {
    std::size_t n = 0;
    for (const auto& phase : phases) n += phase.ops.size();
    return n;
  }
  std::size_t count(Op_status status) const {
    std::size_t n = 0;
    for (const auto& phase : phases) {
      for (const auto& op : phase.ops) n += op.status == status ? 1 : 0;
    }
    return n;
  }
  std::size_t failed() const { return attempted() - count(Op_status::ok); }
};

Live_pass run_live(Load_generator& load, const Workload& workload,
                   const Fleet& fleet, double seconds,
                   std::uint64_t first_stream) {
  const Workload_spec& spec = workload.spec();
  Live_pass pass;
  pass.stats_before = backend_stats(fleet);
  const Fleet_cpu cpu0 = read_fleet_cpu(fleet);
  const Cpu_times self0 = self_cpu_times();
  const std::int64_t t0 = now_ns();
  if (spec.open_rate > 0.0) {
    pass.open = true;
    pass.phases.push_back(load.run_open(first_stream, spec.open_rate,
                                          seconds * spec.open_share));
  }
  load.set_ticker(
      static_cast<std::int64_t>(spec.cpu_window_s * 1e9),
      [&](std::int64_t now) {
        pass.closed_cpu.emplace_back(now, read_fleet_cpu(fleet).total);
      });
  pass.phases.push_back(load.run_closed(
      first_stream + 1, spec.closed_window,
      seconds * (spec.open_rate > 0.0 ? 1.0 - spec.open_share : 1.0)));
  load.set_ticker(0, {});
  pass.wall_seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  const Cpu_times self1 = self_cpu_times();
  const Fleet_cpu cpu1 = read_fleet_cpu(fleet);
  pass.quest_cpu = minus(cpu1.total, cpu0.total);
  pass.router_cpu = minus(cpu1.router, cpu0.router);
  pass.client_cpu = minus(self1, self0);
  pass.stats_after = backend_stats(fleet);
  if (fleet.router() != nullptr) {
    pass.router_stats = fetch_stats(fleet.client_port());
  }
  return pass;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// For tails: the percentile the value stands for.
  double percentile = 0.0;
  /// Per-window values, for windowed metrics.
  std::vector<double> windows;
};

/// The quiet windows' median and tail of a phase (see quiet()): each
/// window (by due time) gives the median and tail of the answered ops
/// `keep` selects.
void add_windowed_latency(std::vector<Metric>& out, const std::string& p50_name,
                          const std::string& tail_name, const Phase_result& phase,
                          std::int64_t width_ns, bool (*keep)(const Op_record&)) {
  const std::int64_t span = phase.end_ns - phase.start_ns;
  const auto windows =
      static_cast<std::size_t>(std::max<std::int64_t>(1, span / width_ns));
  std::vector<std::vector<double>> buckets(windows);
  std::size_t samples = 0;
  for (const auto& op : phase.ops) {
    if (op.status != Op_status::ok || !keep(op)) continue;
    const std::int64_t offset = op.due_ns - phase.start_ns;
    const auto index = static_cast<std::size_t>(std::clamp<std::int64_t>(
        offset / width_ns, 0, static_cast<std::int64_t>(windows) - 1));
    buckets[index].push_back(op.latency_ms());
    ++samples;
  }
  std::vector<double> p50, tail, percentile;
  for (auto& bucket : buckets) {
    const Summary s = summarize(std::move(bucket));
    if (s.samples == 0) continue;
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    percentile.push_back(s.tail_percentile);
  }
  out.push_back({p50_name, quiet(p50, false), "ms", samples, 50.0, p50});
  out.push_back(
      {tail_name, quiet(tail, false), "ms", samples, median(percentile), tail});
}

bool is_read(const Op_record& op) { return op.kind == Op_kind::read; }
bool is_write_op(const Op_record& op) { return is_write(op.kind); }

std::vector<double> read_latencies_ms(const Phase_result& phase) {
  std::vector<double> out;
  for (const auto& op : phase.ops) {
    if (op.kind == Op_kind::read && op.status == Op_status::ok) {
      out.push_back(op.latency_ms());
    }
  }
  return out;
}

/// How late the generator sent each op of a pass's open-loop phase; a
/// closed-loop pass has no schedule to be late for.
std::vector<double> lateness_ms(const Live_pass& pass) {
  std::vector<double> out;
  if (!pass.open) return out;
  for (const auto& op : pass.latency_phase().ops) out.push_back(op.late_ms());
  return out;
}

double client_busy_share(const Live_pass& pass) {
  return pass.client_cpu.total() / std::max(pass.wall_seconds, 1e-9);
}

/// The end-to-end metrics of one live pass; `detail` gets the figures
/// behind them that are not gated.
std::vector<Metric> end_to_end(const Live_pass& pass, const Workload_spec& spec,
                               double setup_s, std::size_t setup_samples,
                               double rss_mb, std::vector<Metric>& detail) {
  // Why windows: the host can deschedule a vCPU for 5-15 ms a few times a
  // second and slow a whole vCPU for seconds to minutes. Each figure is
  // read per window and reported at its quiet windows (see quiet()),
  // while a whole-run p99 lands on whichever stalls the run met (it is
  // printed too). A window's tail follows the percentile rule, so a
  // window with fewer samples reports a lower percentile, and says which.
  std::vector<Metric> out;
  out.push_back({"setup_s", setup_s, "s", setup_samples, 50.0, {}});
  add_windowed_latency(out, "latency_p50_ms", "latency_p99_ms",
                       pass.latency_phase(),
                       static_cast<std::int64_t>(spec.latency_window_s * 1e9),
                       is_read);
  // The tail is not gated: on fleet-mixed's open loop a 5-15 ms host
  // stall delays every request scheduled behind it, and on a 4-vCPU VM
  // some runs held such a stall in every window.
  detail.push_back(std::move(out.back()));
  out.pop_back();

  // Throughput and CPU per request, over the closed-loop phase's windows
  // between CPU samples; a window running past the end of the phase's
  // duration (into the drain) is left out.
  const auto width_ns = static_cast<std::int64_t>(spec.cpu_window_s * 1e9);
  const Phase_result& closed = pass.closed_phase();
  struct Window {
    double cpu_per_op, user, sys, ops;
  };
  std::vector<Window> windows;
  std::vector<double> rps, cpu_per_op;
  std::size_t reads_done = 0;
  const auto& cpu = pass.closed_cpu;
  for (std::size_t w = 0; w + 1 < cpu.size(); ++w) {
    const auto [from, cpu_from] = cpu[w];
    const auto [to, cpu_to] = cpu[w + 1];
    if (to > closed.end_ns + width_ns / 10) continue;
    std::size_t reads = 0, ops = 0;
    for (const auto& op : closed.ops) {
      if (op.status != Op_status::ok || op.done_ns < from) continue;
      if (op.done_ns < to) ++ops;
      // Throughput counts reads finished within the phase's duration.
      if (op.kind == Op_kind::read &&
          op.done_ns < std::min(to, closed.end_ns)) {
        ++reads;
      }
    }
    const double seconds =
        static_cast<double>(std::min(to, closed.end_ns) - from) * 1e-9;
    if (ops == 0 || seconds <= 0.0) continue;
    const Cpu_times used = minus(cpu_to, cpu_from);
    windows.push_back({used.total() / static_cast<double>(ops), used.user,
                       used.sys, static_cast<double>(ops)});
    rps.push_back(static_cast<double>(reads) / seconds);
    cpu_per_op.push_back(windows.back().cpu_per_op);
    reads_done += reads;
  }
  out.push_back({"throughput_rps", quiet(rps, true), "req/s", reads_done, 0.0, rps});
  // CPU per request is pooled over the quiet windows, those at or below
  // the quiet quantile of CPU per op: /proc counts user and system time
  // in 10 ms ticks, too coarse for one window's system time.
  const double cutoff = quiet(cpu_per_op, false);
  double user = 0.0, sys = 0.0, ops = 0.0;
  std::vector<double> user_us, sys_us;
  for (const Window& w : windows) {
    user_us.push_back(w.user * 1e6 / w.ops);
    sys_us.push_back(w.sys * 1e6 / w.ops);
    if (w.cpu_per_op > cutoff) continue;
    user += w.user;
    sys += w.sys;
    ops += w.ops;
  }
  const auto quiet_ops = static_cast<std::size_t>(ops);
  ops = std::max(ops, 1.0);
  std::vector<double> cpu_us;
  for (const double seconds : cpu_per_op) cpu_us.push_back(seconds * 1e6);
  out.push_back({"server_cpu_us_per_req", (user + sys) * 1e6 / ops, "us",
                 quiet_ops, 0.0, cpu_us});
  out.push_back({"server_rss_mb", rss_mb, "MB", 0, 0.0, {}});

  // Printed, and per-layer metrics of the traced run, but not gated: the
  // user/system split and the writes. On a 4-vCPU VM, system time alone
  // moved by a quarter between two sets of runs of the same code on
  // engine-heavy, where it is 2% of server CPU; only fleet-mixed sends
  // writes.
  detail.push_back({"server_user_us_per_req", user * 1e6 / ops, "us",
                    quiet_ops, 0.0, user_us});
  detail.push_back({"server_sys_us_per_req", sys * 1e6 / ops, "us",
                    quiet_ops, 0.0, sys_us});
  add_windowed_latency(detail, "write_latency_p50_ms", "write_latency_p99_ms",
                       pass.latency_phase(),
                       static_cast<std::int64_t>(spec.latency_window_s * 1e9),
                       is_write_op);
  return out;
}

/// What the per-layer metrics are computed from.
struct Layer_inputs {
  const Workload& workload;
  const Live_pass& untraced;
  const Live_pass& traced;
  Metrics& replayed;
  const Engine_cpu& engine_cpu;
  const std::vector<Metric>& detail;
  const std::vector<double>& via_router_us;
  const std::vector<double>& direct_us;
  bool has_router;
  Summary late;
  double cpu_share;
  double busy;
};

/// The per-layer metrics: the traced pass's client-side timings, the
/// servers' stats and /proc, and the in-process replay.
std::vector<Metric> layer_metrics(const Layer_inputs& in) {
  const Live_pass& traced = in.traced;
  const Live_pass& untraced = in.untraced;
  Metrics& replayed = in.replayed;
  std::vector<double> ack_us, queue_wait_ms, queue_depth, engine_ms;
  // Engine CPU: each answered uncached read costs what the same search
  // cost in the in-process replay, by engine.
  double events = 0, bytes = 0, answered = 0, engine_cpu_s = 0;
  // Timings come from the phase the latency metrics come from, so they
  // explain it; counts and engine CPU cover the whole pass.
  for (const auto& phase : traced.phases) {
    const bool timed = &phase == &traced.latency_phase();
    for (const auto& op : phase.ops) {
      if (op.kind != Op_kind::read || op.status != Op_status::ok) continue;
      answered += 1;
      events += op.events;
      bytes += op.bytes;
      if (!op.cached) {
        const auto& cpu = op.engine_threads > 1 ? in.engine_cpu.bnb_par_2t
                                                : in.engine_cpu.bnb;
        engine_cpu_s += cpu[op.instance];
      }
      if (!timed) continue;
      if (!op.cached) engine_ms.push_back(op.elapsed_seconds * 1e3);
      if (op.admitted_ns != 0) {
        ack_us.push_back(static_cast<double>(op.admitted_ns - op.sent_ns) *
                         1e-3);
        if (op.queue_depth >= 0) queue_depth.push_back(op.queue_depth);
        if (!op.cached) {
          queue_wait_ms.push_back(std::max(
              0.0, static_cast<double>(op.done_ns - op.admitted_ns) * 1e-6 -
                       op.elapsed_seconds * 1e3));
        }
      }
    }
  }
  const auto per = [&](double total) {
    return answered == 0 ? 0.0 : total / answered;
  };
  const auto delta = [&](std::string_view field,
                         std::string_view object = {}) {
    return backend_sum(traced.stats_after, field, object) -
           backend_sum(traced.stats_before, field, object);
  };
  const Summary wait = summarize(queue_wait_ms);
  const Summary depth = summarize(queue_depth);
  const double lookups = delta("lookups", "cache");
  double max_concurrent = 0.0;
  for (const auto& event : traced.stats_after) {
    if (const auto* value = event.find("max_concurrent")) {
      max_concurrent = std::max(max_concurrent, value->as_number());
    }
  }
  const auto router_field = [&](std::string_view field) {
    const auto* value = traced.router_stats.is_object()
                            ? traced.router_stats.find(field)
                            : nullptr;
    return value != nullptr && value->is_number() ? value->as_number() : 0.0;
  };
  // Only fleet-mixed registers instances beyond its base set.
  std::set<std::uint32_t> fresh_registered;
  for (const auto* pass : {&untraced, &traced}) {
    for (const auto& phase : pass->phases) {
      for (const auto& op : phase.ops) {
        if (op.kind == Op_kind::register_write &&
            op.status == Op_status::ok) {
          fresh_registered.insert(op.instance);
        }
      }
    }
  }
  const double copies = backend_sum(traced.stats_after, "instances");
  const double registered_instances = static_cast<double>(
      in.workload.instances().size() + fresh_registered.size());
  const Summary router_path = summarize(in.via_router_us);
  const Summary direct_path = summarize(in.direct_us);
  const double ops_done = static_cast<double>(
      std::max<std::size_t>(traced.count(Op_status::ok), 1));

  std::vector<Metric> layers;
  const auto m = [&](std::string name, double value, std::string unit,
                     std::size_t samples = 0) {
    layers.push_back(
        {std::move(name), value, std::move(unit), samples, 0.0, {}});
  };
  m("serve.tcp.ack_us_p50", summarize(ack_us).p50, "us", ack_us.size());
  m("serve.tcp.events_per_req", per(events), "count",
    static_cast<std::size_t>(answered));
  m("serve.tcp.bytes_out_per_req", per(bytes), "B",
    static_cast<std::size_t>(answered));
  m("serve.session.line_us", replayed["serve.session.line_us"], "us");
  m("serve.codec.parse_us", replayed["serve.codec.parse_us"], "us");
  m("serve.codec.encode_result_us", replayed["serve.codec.encode_result_us"],
    "us");
  m("serve.codec.encode_admitted_us",
    replayed["serve.codec.encode_admitted_us"], "us");
  m("serve.codec.result_bytes", replayed["serve.codec.result_bytes"], "B");
  m("serve.server.admit_us", replayed["serve.server.admit_us"], "us");
  m("serve.server.queue_wait_ms_p50", wait.p50, "ms", wait.samples);
  m("serve.server.queue_wait_ms_p99", wait.tail, "ms", wait.samples);
  m("serve.server.queue_depth_p99", depth.tail, "count", depth.samples);
  m("serve.server.shed", delta("shed"), "count");
  m("serve.server.max_concurrent", max_concurrent, "count");
  m("serve.plan_cache.hit_ratio",
    lookups > 0 ? delta("hits", "cache") / lookups : 0.0, "ratio",
    static_cast<std::size_t>(lookups));
  m("serve.plan_cache.lookup_us", replayed["serve.plan_cache.lookup_us"],
    "us");
  m("model.cost_model_key_us", replayed["model.cost_model_key_us"], "us");
  m("io.fingerprint_us", replayed["io.fingerprint_us"], "us");
  m("core.engine_ms_p50", summarize(engine_ms).p50, "ms", engine_ms.size());
  // An estimate: the replay ran on another process and host moment, so
  // it is capped at 1.
  m("core.engine_cpu_share",
    std::min(1.0, engine_cpu_s / std::max(traced.quest_cpu.total(), 1e-9)),
    "ratio");
  m("core.nodes_per_s", replayed["core.nodes_per_s"], "1/s");
  for (const char* name :
       {"core.prunes_per_node", "core.lemma1_cutoffs_per_node",
        "core.lemma2_closures_per_node", "core.lemma3_backjumps_per_node",
        "core.lb_prunes_per_node"}) {
    m(name, replayed[name], "ratio");
  }
  m("core.bnb_par_speedup_2t", replayed["core.bnb_par_speedup_2t"], "x");
  m("model.bottleneck_cost_ns_per_service",
    replayed["model.bottleneck_cost_ns_per_service"], "ns");
  m("router.hop_us_p50", router_path.p50 - direct_path.p50, "us",
    router_path.samples);
  m("router.hop_us_p99", router_path.tail - direct_path.tail, "us",
    router_path.samples);
  m("router.cpu_us_per_req",
    in.has_router ? traced.router_cpu.total() * 1e6 / ops_done : 0.0,
    "us");
  m("cluster.fanout_per_write",
    registered_instances > 0 ? copies / registered_instances : 0.0,
    "count");
  m("cluster.replica_lag", router_field("replica_lag"), "count");
  m("cluster.replica_failovers", router_field("replica_failovers"),
    "count");
  m("cluster.repairs", router_field("repairs"), "count");
  m("adapt.record_run_us", replayed["adapt.record_run_us"], "us");
  m("adapt.fit_ms", replayed["adapt.fit_ms"], "ms");
  m("store.snapshot.write_ms", replayed["store.snapshot.write_ms"], "ms");
  m("store.snapshot.load_ms", replayed["store.snapshot.load_ms"], "ms");
  m("store.snapshot.bytes", replayed["store.snapshot.bytes"], "B");
  m("store.snapshot.writes", delta("snapshot_writes"), "count");
  for (const auto& metric : in.detail) layers.push_back(metric);
  m("loadgen.late_p99_ms", in.late.tail, "ms", in.late.samples);
  m("loadgen.cpu_share", in.cpu_share, "ratio");
  m("loadgen.busy_share", in.busy, "ratio");
  const auto p50_of = [](const Live_pass& pass) {
    return summarize(read_latencies_ms(pass.latency_phase())).p50;
  };
  const auto client_us_per_op = [](const Live_pass& pass) {
    return pass.client_cpu.total() * 1e6 /
           static_cast<double>(std::max<std::size_t>(pass.attempted(), 1));
  };
  m("trace.overhead_latency_p50_pct",
    (p50_of(traced) / std::max(p50_of(untraced), 1e-9) - 1.0) * 100.0, "%");
  m("trace.overhead_client_us_per_op",
    client_us_per_op(traced) - client_us_per_op(untraced), "us");
  return layers;
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

int run(const Options& options) {
  if (std::string_view(QUESTBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "quest_bench: refusing to measure a " << QUESTBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  make_dir(options.run_dir);
  const std::string results_dir = options.run_dir + "/results";
  const std::string traces_dir = options.run_dir + "/traces";
  make_dir(results_dir);
  make_dir(traces_dir);

  const std::int64_t prepare_start = now_ns();
  const Workload workload(options.workload, options.seed);
  const Workload_spec& spec = workload.spec();
  const double prepare_s =
      static_cast<double>(now_ns() - prepare_start) * 1e-9;

  const std::vector<Op> registration = workload.registration_ops();
  const std::vector<Op> warmup = workload.warmup_ops();

  bool correct = true;
  std::vector<std::string> problems;
  std::vector<double> setup_seconds;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Load_generator> load;
  for (int k = 0; k < k_setups; ++k) {
    if (load) load.reset();
    if (fleet && !fleet->stop()) {
      problems.push_back("a quest process did not stop cleanly in set-up " +
                         std::to_string(k - 1));
      correct = false;
    }
    const std::string setup_dir =
        options.run_dir + "/setup" + std::to_string(k);
    make_dir(setup_dir);
    const std::int64_t start = now_ns();
    fleet = std::make_unique<Fleet>(spec, options.bin_dir, setup_dir);
    load = std::make_unique<Load_generator>(workload, fleet->client_port(),
                                            spec.connections);
    const Phase_result registered = load->run_list(registration, 1, 1);
    const Phase_result warmed =
        load->run_list(warmup, spec.connections, 4);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    for (const auto* phase : {&registered, &warmed}) {
      for (const auto& op : phase->ops) {
        if (op.status != Op_status::ok) {
          correct = false;
          problems.push_back("set-up op failed (status " +
                             std::to_string(static_cast<int>(op.status)) +
                             ")");
          break;
        }
      }
    }
  }

  Span_log trace_log;
  Live_pass untraced, traced;
  if (options.trace) {
    untraced = run_live(*load, workload, *fleet, options.seconds / 2, 0);
    load->set_trace(&trace_log);
    traced = run_live(*load, workload, *fleet, options.seconds / 2, 2);
    load->set_trace(nullptr);
  } else {
    untraced = run_live(*load, workload, *fleet, options.seconds, 0);
  }
  const Live_pass& measured = options.trace ? traced : untraced;

  double rss_kb = 0.0;
  for (const auto& process : fleet->processes()) {
    rss_kb += static_cast<double>(read_vm_hwm_kb(process.pid).value_or(0));
  }

  // Router hop: the same cached request through the router and straight
  // to the backend store::Shard_map names as its owner.
  std::vector<double> via_router_us, direct_us;
  if (options.trace && fleet->router() != nullptr) {
    const auto ports = fleet->backend_ports();
    const quest::store::Shard_map shards(ports.size());
    std::vector<Op> probe_ops;
    for (const auto& op : warmup) {
      if (op.kind == Op_kind::read) probe_ops.push_back(op);
    }
    std::vector<std::unique_ptr<Load_generator>> direct;
    for (const int port : ports) {
      direct.push_back(std::make_unique<Load_generator>(workload, port, 1));
    }
    for (std::size_t i = 0; i < k_hop_probes; ++i) {
      const Op& op = probe_ops[i % probe_ops.size()];
      const auto owner =
          shards.shard_of(workload.instances()[op.instance].fingerprint);
      const std::vector<Op> one = {op};
      for (const bool through_router : {true, false}) {
        const Phase_result r =
            through_router ? load->run_list(one, 1, 1)
                           : direct[owner]->run_list(one, 1, 1);
        const auto& rec = r.ops.front();
        if (rec.status != Op_status::ok) {
          correct = false;
          problems.push_back("router-hop probe failed");
        }
        (through_router ? via_router_us : direct_us)
            .push_back(rec.latency_ms() * 1e3);
      }
    }
  }

  const std::vector<std::string> incorrect = load->incorrect();
  const std::vector<std::string> errors = load->errors();
  if (!incorrect.empty()) correct = false;
  load.reset();
  const bool has_router = fleet->router() != nullptr;
  const std::vector<Process> processes = fleet->processes();
  if (!fleet->stop()) {
    problems.push_back("a quest process did not stop cleanly");
    correct = false;
  }
  fleet.reset();

  // ---- metrics
  std::vector<Metric> detail;
  std::vector<Metric> e2e =
      end_to_end(measured, spec, median(setup_seconds), setup_seconds.size(),
                 rss_kb / 1024.0, detail);
  const double failed_share =
      static_cast<double>(measured.failed()) /
      static_cast<double>(std::max<std::size_t>(measured.attempted(), 1));

  // Load generator health, from the measured pass.
  const Summary late = summarize(lateness_ms(measured));
  const double cpu_share =
      measured.client_cpu.total() / std::max(measured.quest_cpu.total(), 1e-9);
  const double busy = client_busy_share(measured);
  const bool generator_bound = busy > k_generator_busy_limit;

  std::vector<Metric> layers;
  if (options.trace) {
    Metrics replayed;
    Engine_cpu engine_cpu;
    replay_layers(workload, options.run_dir, trace_log, replayed, engine_cpu);
    layers = layer_metrics({workload, untraced, traced, replayed, engine_cpu,
                            detail, via_router_us, direct_us, has_router,
                            late, cpu_share, busy});
    trace_log.write_jsonl(traces_dir + "/" + options.workload + "-seed" +
                          std::to_string(options.seed) + ".jsonl");
  }

  // ---- report
  namespace io = quest::io;
  io::Json context;
  context.set("workload", io::Json(options.workload));
  context.set("seed", io::Json(static_cast<double>(options.seed)));
  context.set("seconds", io::Json(options.seconds));
  context.set("trace", io::Json(options.trace));
  context.set("num_cpus",
              io::Json(static_cast<double>(std::thread::hardware_concurrency())));
  context.set("cpu_mhz", io::Json(cpu_mhz()));
  context.set("build_type", io::Json(QUESTBENCH_BUILD_TYPE));
  context.set("commit", io::Json(options.commit));
  context.set("instances",
              io::Json(static_cast<double>(workload.instances().size())));
  context.set("prepare_s", io::Json(prepare_s));
  io::Json flags;
  for (const auto& process : processes) {
    std::string line;
    for (std::size_t i = 0; i < process.argv.size(); ++i) {
      const std::string& arg = process.argv[i];
      line += i == 0 ? arg.substr(arg.rfind('/') + 1) : " " + arg;
    }
    io::Json entry;
    entry.set("role", io::Json(process.role));
    entry.set("command", io::Json(line));
    flags.push_back(std::move(entry));
  }
  context.set("processes", std::move(flags));
  context.set("generator_bound", io::Json(generator_bound));
  std::cout << "context " << context.dump() << "\n";

  const auto print = [](const Metric& metric) {
    std::cout << "  " << metric.name << " = " << format_number(metric.value)
              << " " << metric.unit;
    if (metric.samples > 0) std::cout << "  (samples " << metric.samples;
    if (metric.samples > 0 && metric.percentile > 0.0 &&
        metric.percentile != 50.0) {
      char p[32];
      std::snprintf(p, sizeof p, ", p%.1f", metric.percentile);
      std::cout << p;
    }
    if (metric.samples > 0) std::cout << ")";
    std::cout << "\n";
  };
  std::cout << (options.trace ? "end-to-end (traced half):\n"
                              : "end-to-end:\n");
  for (const auto& metric : e2e) print(metric);
  std::cout << "not gated:\n";
  if (!options.trace) {
    for (const auto& metric : detail) print(metric);
  }
  const Summary whole = summarize(read_latencies_ms(measured.latency_phase()));
  std::cout << "  latency_p99_whole_phase_ms = " << format_number(whole.tail)
            << " ms  (samples " << whole.samples << ", p"
            << format_number(whole.tail_percentile) << ")\n";
  std::uint64_t unmatched = 0;
  for (const auto& phase : measured.phases) unmatched += phase.unmatched_events;
  std::cout << "  failed_share = " << format_number(failed_share)
            << " ratio  (attempted " << measured.attempted() << ", failed "
            << measured.failed() << ", unattributed events " << unmatched
            << ")\n";
  std::cout << "  loadgen.late_p99_ms = " << format_number(late.tail)
            << " ms  (samples " << late.samples << ")\n";
  std::cout << "  loadgen.cpu_share = " << format_number(cpu_share)
            << " ratio\n";
  if (options.trace) {
    std::cout << "per-layer:\n";
    for (const auto& metric : layers) print(metric);
  }
  if (generator_bound) {
    std::cout << "INVALID: the load generator, not quest, was the bottleneck "
                 "(client busy "
              << format_number(busy) << " of wall time)\n";
  }
  for (const auto& text : problems) std::cerr << "problem: " << text << "\n";
  for (const auto& text : incorrect) std::cerr << "incorrect: " << text << "\n";
  for (const auto& text : errors) std::cerr << "error event: " << text << "\n";

  io::Json metrics;
  for (const auto& metric : options.trace ? layers : e2e) {
    io::Json entry;
    entry.set("value", io::Json(std::isfinite(metric.value) ? metric.value : 0.0));
    entry.set("unit", io::Json(metric.unit));
    metrics.set(metric.name, std::move(entry));
  }
  io::Json result;
  result.set("correct", io::Json(correct));
  result.set("attempted", io::Json(static_cast<double>(measured.attempted())));
  result.set("failed", io::Json(static_cast<double>(measured.failed())));
  result.set("metrics", metrics);

  io::Json record = context;
  io::Json samples;
  for (const auto* group : {&e2e, &detail, &layers}) {
    for (const auto& metric : *group) {
      io::Json entry;
      entry.set("value", io::Json(metric.value));
      entry.set("unit", io::Json(metric.unit));
      entry.set("samples", io::Json(static_cast<double>(metric.samples)));
      if (metric.percentile > 0.0) {
        entry.set("percentile", io::Json(metric.percentile));
      }
      if (!metric.windows.empty()) {
        io::Json windows;
        for (const double w : metric.windows) windows.push_back(io::Json(w));
        entry.set("windows", std::move(windows));
      }
      samples.set(metric.name, std::move(entry));
    }
  }
  record.set("metrics", std::move(samples));
  record.set("failed_share", io::Json(failed_share));
  record.set("loadgen_cpu_share", io::Json(cpu_share));
  record.set("correct", io::Json(correct));
  std::ofstream(results_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" +
                (options.trace ? "1" : "0") + ".json")
      << record.dump(2) << "\n";

  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace questbench

int main(int argc, char** argv) {
  const auto options = questbench::parse_options(argc, argv);
  try {
    return questbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "quest_bench: " << error.what() << '\n';
    return 2;
  }
}
