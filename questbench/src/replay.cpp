#include "replay.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <variant>

#include "event_scan.hpp"
#include "proc.hpp"
#include "quest/adapt/model_fitter.hpp"
#include "quest/adapt/observation_log.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/model/cost.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/serve/plan_cache.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "quest/serve/transport.hpp"
#include "quest/store/snapshot.hpp"
#include "stats.hpp"

namespace questbench {
namespace {

namespace serve = quest::serve;
namespace model = quest::model;

/// The op stream the replay draws from; the live phases use 0 and 1.
constexpr std::uint64_t k_replay_stream = 100;
constexpr std::size_t k_replay_ops = 2000;
/// Ops a live-server replay (handle_line, session) admits before waiting
/// for their results, and the wall time each of the two may spend.
constexpr std::size_t k_batch = 16;
constexpr double k_server_replay_seconds = 0.75;
constexpr int k_snapshot_repeats = 5;
constexpr std::size_t k_adapt_runs = 32;

std::string read_line(const Op& op, std::size_t index) {
  std::string line(k_read_head);
  line += "x." + std::to_string(index);
  line += op.line;
  return line;
}

std::string line_of(const Op& op, std::size_t index) {
  return op.kind == Op_kind::read ? read_line(op, index) : op.line;
}

double median_of(const Span_log& log, const char* name, double scale = 1.0) {
  return median(log.durations_us(name)) * scale;
}

/// Counts a server's events and lets the replay wait for results.
class Result_counter {
 public:
  void on_event(std::string_view text) {
    const auto event = scan_string(text, "event");
    std::lock_guard<std::mutex> lock(mutex_);
    if (event && (*event == "result" || *event == "error")) ++results_;
    changed_.notify_all();
  }
  void wait_for(std::size_t results) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return results_ >= results; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::size_t results_ = 0;
};

/// Feeds `ops` in batches through `submit`, spanning each call, and
/// waits for each batch's results before the next; stops after
/// k_server_replay_seconds. `counter` has already seen `base` results.
template <typename Submit>
void replay_batches(const std::vector<Op>& ops, Result_counter& counter,
                    std::size_t base, Span_log& log, const char* read_span,
                    const char* write_span, std::int32_t root,
                    Submit&& submit) {
  const std::int64_t stop_at =
      now_ns() + static_cast<std::int64_t>(k_server_replay_seconds * 1e9);
  std::size_t reads = base;
  for (std::size_t start = 0; start < ops.size() && now_ns() < stop_at;
       start += k_batch) {
    const std::size_t end = std::min(ops.size(), start + k_batch);
    for (std::size_t i = start; i < end; ++i) {
      const std::string line = line_of(ops[i], i);
      const bool read = ops[i].kind == Op_kind::read;
      const auto span = log.begin(read ? read_span : write_span, root,
                                  static_cast<std::uint32_t>(i));
      submit(line);
      log.end(span);
      reads += read ? 1 : 0;
    }
    counter.wait_for(reads);
  }
}

serve::Server_options server_options(const Workload_spec& spec) {
  serve::Server_options options;
  options.workers = spec.backend_workers;
  options.queue_cap = 1024;
  return options;
}

/// A Transport owned by the benchmark: run() replays the lines through
/// the session layer's handlers on the calling thread, and send()
/// collects what the session would have written to the socket.
class Replay_transport final : public serve::Transport {
 public:
  Replay_transport(const std::vector<Op>& setup, const std::vector<Op>& ops,
                   Span_log& log, std::int32_t root)
      : setup_(setup), ops_(ops), log_(log), root_(root) {}

  void run(const Handlers& handlers) override {
    constexpr serve::Connection_id k_connection = 1;
    handlers.on_open(k_connection);
    std::size_t setup_reads = 0;
    for (std::size_t i = 0; i < setup_.size(); ++i) {
      handlers.on_data(k_connection, line_of(setup_[i], i) + "\n");
      setup_reads += setup_[i].kind == Op_kind::read ? 1 : 0;
    }
    counter_.wait_for(setup_reads);
    replay_batches(ops_, counter_, setup_reads, log_, "serve.session.on_data",
                   "serve.session.on_data_write", root_,
                   [&](const std::string& line) {
                     handlers.on_data(k_connection, line + "\n");
                   });
    handlers.on_close(k_connection);
  }
  void stop() override {}
  bool send(serve::Connection_id, std::string_view line) override {
    counter_.on_event(line);
    return true;
  }
  void close(serve::Connection_id) override {}

 private:
  const std::vector<Op>& setup_;
  const std::vector<Op>& ops_;
  Span_log& log_;
  std::int32_t root_;
  Result_counter counter_;
};

}  // namespace

void replay_layers(const Workload& workload, const std::string& work_dir,
                   Span_log& log, Metrics& metrics, Engine_cpu& engine_cpu) {
  const auto& instances = workload.instances();
  std::vector<Op> ops;
  ops.reserve(k_replay_ops);
  for (std::size_t i = 0; i < k_replay_ops; ++i) {
    ops.push_back(workload.op(k_replay_stream, i));
  }
  const std::vector<Op> warmup = workload.warmup_ops();
  std::vector<Op> setup = workload.registration_ops();
  setup.insert(setup.end(), warmup.begin(), warmup.end());

  // --- engines, over every instance: bnb, then bnb-par at 2 threads.
  const auto core_root = log.begin("replay.core", -1, 0);
  std::vector<quest::opt::Result> reference(instances.size());
  quest::opt::Search_stats totals;
  double bnb_seconds = 0.0, par_seconds = 0.0;
  for (const char* spec : {"bnb", "bnb-par:threads=2"}) {
    const bool sequential = std::string_view(spec) == "bnb";
    auto engine = quest::core::make_optimizer(spec);
    auto& cpu = sequential ? engine_cpu.bnb : engine_cpu.bnb_par_2t;
    cpu.clear();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      quest::opt::Request request;
      request.instance = &instances[i].doc.instance;
      request.precedence = instances[i].precedence();
      const auto span = log.begin(
          sequential ? "core.optimize.bnb" : "core.optimize.bnb_par_2t",
          core_root, static_cast<std::uint32_t>(i));
      const double cpu_before = self_cpu_times().total();
      auto result = engine->optimize(request);
      cpu.push_back(self_cpu_times().total() - cpu_before);
      log.end(span);
      const auto& s = log.spans()[static_cast<std::size_t>(span)];
      const double seconds = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (sequential) {
        bnb_seconds += seconds;
        totals.nodes_expanded += result.stats.nodes_expanded;
        totals.lemma1_cutoffs += result.stats.lemma1_cutoffs;
        totals.lemma2_closures += result.stats.lemma2_closures;
        totals.lemma3_backjumps += result.stats.lemma3_backjumps;
        totals.lower_bound_prunes += result.stats.lower_bound_prunes;
        reference[i] = std::move(result);
      } else {
        par_seconds += seconds;
      }
    }
  }
  log.end(core_root);
  const auto nodes = static_cast<double>(std::max<std::uint64_t>(
      totals.nodes_expanded, 1));
  metrics["core.nodes_per_s"] = nodes / std::max(bnb_seconds, 1e-9);
  metrics["core.prunes_per_node"] =
      static_cast<double>(totals.total_prunes()) / nodes;
  metrics["core.lemma1_cutoffs_per_node"] =
      static_cast<double>(totals.lemma1_cutoffs) / nodes;
  metrics["core.lemma2_closures_per_node"] =
      static_cast<double>(totals.lemma2_closures) / nodes;
  metrics["core.lemma3_backjumps_per_node"] =
      static_cast<double>(totals.lemma3_backjumps) / nodes;
  metrics["core.lb_prunes_per_node"] =
      static_cast<double>(totals.lower_bound_prunes) / nodes;
  metrics["core.bnb_par_speedup_2t"] = bnb_seconds / std::max(par_seconds, 1e-9);

  // --- evaluator: Eq. 1 on each instance's optimal plan.
  const auto eval_root = log.begin("replay.model", -1, 0);
  std::vector<double> ns_per_service;
  volatile double sink = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    constexpr int k_evaluations = 4096;
    const auto span = log.begin("model.bottleneck_cost_x4096", eval_root,
                                static_cast<std::uint32_t>(i));
    for (int k = 0; k < k_evaluations; ++k) {
      sink = sink + model::bottleneck_cost(instances[i].doc.instance,
                                           instances[i].optimum_plan);
    }
    log.end(span);
    const auto& s = log.spans()[static_cast<std::size_t>(span)];
    ns_per_service.push_back(
        static_cast<double>(s.end_ns - s.start_ns) /
        (k_evaluations * static_cast<double>(instances[i].doc.instance.size())));
  }
  log.end(eval_root);
  metrics["model.bottleneck_cost_ns_per_service"] = median(ns_per_service);

  // --- codec, fingerprint, cost-model key, plan cache.
  const auto codec_root = log.begin("replay.codec", -1, 0);
  std::vector<serve::Op> parsed;
  parsed.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string line = line_of(ops[i], i);
    const auto span = log.begin("serve.codec.parse", codec_root,
                                static_cast<std::uint32_t>(i));
    parsed.push_back(serve::parse_op(line));
    log.end(span);
  }
  double result_bytes = 0.0;
  std::size_t results = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op_kind::read) continue;
    const auto& r = reference[ops[i].instance];
    const std::string id = "x." + std::to_string(i);
    const std::string key = model::Cost_model().key();
    auto span = log.begin("serve.codec.encode_result", codec_root,
                          static_cast<std::uint32_t>(i));
    const std::string result =
        serve::result_event(id, r.termination, r.plan, r.cost, true,
                            r.proven_optimal, false, false, key,
                            r.elapsed_seconds, &r.stats)
            .dump();
    log.end(span);
    span = log.begin("serve.codec.encode_admitted", codec_root,
                     static_cast<std::uint32_t>(i));
    const std::string admitted = serve::admitted_event(id, i % 8).dump();
    log.end(span);
    result_bytes += static_cast<double>(result.size() + 1);
    ++results;
  }
  metrics["serve.codec.parse_us"] = median_of(log, "serve.codec.parse");
  metrics["serve.codec.encode_result_us"] =
      median_of(log, "serve.codec.encode_result");
  metrics["serve.codec.encode_admitted_us"] =
      median_of(log, "serve.codec.encode_admitted");
  metrics["serve.codec.result_bytes"] =
      results == 0 ? 0.0 : result_bytes / static_cast<double>(results);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& entry = workload.target(ops[i]);
    auto span = log.begin("io.fingerprint", codec_root,
                          static_cast<std::uint32_t>(i));
    const auto fingerprint =
        quest::io::fingerprint(entry.doc.instance, entry.precedence());
    log.end(span);
    sink = sink + static_cast<double>(fingerprint & 1);
    const model::Cost_model bound =
        model::Cost_model_spec{}.bind(entry.doc.instance.size());
    span = log.begin("model.cost_model_key", codec_root,
                     static_cast<std::uint32_t>(i));
    const std::string key = bound.key();
    log.end(span);
    sink = sink + static_cast<double>(key.size());
  }
  metrics["io.fingerprint_us"] = median_of(log, "io.fingerprint");
  metrics["model.cost_model_key_us"] = median_of(log, "model.cost_model_key");

  // The cache holds what the set-up's reads primed; every replayed read
  // is then looked up, so repeats hit and the rest miss.
  serve::Plan_cache cache;
  const auto cache_key = [&](const serve::Op& op) -> std::optional<serve::Cache_key> {
    const auto* read = std::get_if<serve::Optimize_op>(&op);
    if (read == nullptr) return std::nullopt;
    for (const auto& entry : instances) {
      if (entry.name != read->instance_name) continue;
      return serve::Cache_key{
          entry.fingerprint, read->model.bind(entry.doc.instance.size()).key(),
          read->optimizer, serve::budget_class(read->budget), read->seed};
    }
    return std::nullopt;
  };
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    if (warmup[i].kind != Op_kind::read) continue;
    const auto key = cache_key(serve::parse_op(read_line(warmup[i], i)));
    const auto& entry = instances[warmup[i].instance];
    cache.insert(*key, {entry.optimum_plan, entry.optimum,
                        quest::opt::Termination::optimal, true});
  }
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto key = cache_key(parsed[i]);
    if (!key) continue;
    const auto span = log.begin("serve.plan_cache.lookup", codec_root,
                                static_cast<std::uint32_t>(i));
    const auto hit = cache.lookup(*key);
    log.end(span);
    sink = sink + (hit ? 1.0 : 0.0);
  }
  metrics["serve.plan_cache.lookup_us"] =
      median_of(log, "serve.plan_cache.lookup");
  log.end(codec_root);

  // --- server admission: Server::handle_line on a live in-process server.
  {
    Result_counter counter;
    serve::Server server(server_options(workload.spec()),
                         [&](const quest::io::Json& event) {
                           counter.on_event(event.dump());
                         });
    std::size_t setup_reads = 0;
    for (std::size_t i = 0; i < setup.size(); ++i) {
      server.handle_line(line_of(setup[i], i));
      setup_reads += setup[i].kind == Op_kind::read ? 1 : 0;
    }
    counter.wait_for(setup_reads);
    const auto root = log.begin("replay.server", -1, 0);
    replay_batches(ops, counter, setup_reads, log, "serve.server.handle_line",
                   "serve.server.handle_write", root,
                   [&](const std::string& line) { server.handle_line(line); });
    log.end(root);
    server.shutdown();
  }
  metrics["serve.server.admit_us"] = median_of(log, "serve.server.handle_line");

  // --- the session layer over a Transport owned by the benchmark.
  {
    serve::Server server(server_options(workload.spec()));
    const auto root = log.begin("replay.session", -1, 0);
    Replay_transport transport(setup, ops, log, root);
    serve::Session_manager sessions(server, transport);
    sessions.serve();
    log.end(root);
    server.shutdown();
  }
  metrics["serve.session.line_us"] = median_of(log, "serve.session.on_data");

  // --- snapshots of the state this workload registers and caches.
  {
    serve::Instance_store store;
    serve::Plan_cache snapshot_cache;
    for (const auto* group : {&instances, &workload.fresh()}) {
      for (const auto& entry : *group) {
        store.put(entry.name, entry.doc.instance, entry.doc.precedence);
      }
    }
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& entry = instances[i];
      const serve::Cached_plan plan{entry.optimum_plan, entry.optimum,
                                    quest::opt::Termination::optimal, true};
      snapshot_cache.insert(
          serve::Cache_key{entry.fingerprint, model::Cost_model().key(), "bnb",
                           serve::budget_class({}), 1},
          plan);
      snapshot_cache.remember_best(entry.fingerprint,
                                   model::Cost_model().key(), plan);
    }
    const std::string path = work_dir + "/replay.qsnap";
    const auto root = log.begin("replay.store", -1, 0);
    quest::store::Write_report written;
    for (int k = 0; k < k_snapshot_repeats; ++k) {
      const auto span = log.begin("store.snapshot.write", root, k);
      written = quest::store::write_snapshot(path, store, snapshot_cache);
      log.end(span);
    }
    for (int k = 0; k < k_snapshot_repeats; ++k) {
      serve::Instance_store loaded_store;
      serve::Plan_cache loaded_cache;
      const auto span = log.begin("store.snapshot.load", root, k);
      quest::store::load_snapshot(path, loaded_store, loaded_cache);
      log.end(span);
    }
    log.end(root);
    std::remove(path.c_str());
    metrics["store.snapshot.write_ms"] =
        median_of(log, "store.snapshot.write", 1e-3);
    metrics["store.snapshot.load_ms"] =
        median_of(log, "store.snapshot.load", 1e-3);
    metrics["store.snapshot.bytes"] = static_cast<double>(written.bytes);
  }

  // --- the adaptive loop: record synthetic runs, then fit.
  {
    const auto root = log.begin("replay.adapt", -1, 0);
    const quest::adapt::Model_fitter fitter;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      quest::adapt::Observation_log observations(
          instances[i].doc.instance.size());
      for (std::size_t v = 0; v < k_adapt_runs; ++v) {
        const Synthetic_run run = synthetic_run(instances[i], v);
        const auto span = log.begin("adapt.record_run", root,
                                    static_cast<std::uint32_t>(i));
        observations.record_run(run.plan, run.tuples_in, run.tuples_out);
        log.end(span);
      }
      const auto span =
          log.begin("adapt.fit", root, static_cast<std::uint32_t>(i));
      const auto report = fitter.fit(observations);
      log.end(span);
      sink = sink + static_cast<double>(report.runs);
    }
    log.end(root);
    metrics["adapt.record_run_us"] = median_of(log, "adapt.record_run");
    metrics["adapt.fit_ms"] = median_of(log, "adapt.fit", 1e-3);
  }
}

}  // namespace questbench
