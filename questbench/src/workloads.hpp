// The three workloads, generated from a seed. The servers receive only
// the generated protocol lines; the benchmark keeps the instances to
// check every answer against its own reference optimum.
//
//  small-hot     framework-bound: one quest_serve, 64 small instances
//                (n = 8-10), exact bnb with the cache off, half streamed.
//                The engine is nearly idle, so transport, session, codec
//                and admission dominate server CPU.
//  engine-heavy  engine-bound: one quest_serve, a fixed set of 32 hard
//                bottleneck-TSP instances (n = 13-15) spread over bnb
//                node-count strata, bnb and bnb-par:threads=2 with the
//                cache off, 2 connections with one request each in flight.
//  fleet-mixed   the only workload through quest_router: 3 backends with
//                write-behind snapshots, replicas 2, repeated reads served
//                by the exact cache tier, registers and observes fanned
//                out to both replicas, and a periodic refit.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "quest/io/instance_io.hpp"
#include "quest/model/plan.hpp"

namespace questbench {

/// One registered instance and the benchmark's reference answer for it.
struct Bench_instance {
  std::string name;
  std::string family;
  quest::io::Instance_document doc;
  std::uint64_t fingerprint = 0;
  /// As the server spells it in registered/observed/refit events.
  std::string fingerprint_hex;
  std::string register_line;
  /// Reference optimum from the in-process dp engine (read instances).
  double optimum = 0.0;
  quest::model::Plan optimum_plan;

  const quest::constraints::Precedence_graph* precedence() const noexcept {
    return doc.precedence ? &*doc.precedence : nullptr;
  }
};

enum class Op_kind : std::uint8_t { read, register_write, observe, refit };

inline bool is_write(Op_kind kind) noexcept { return kind != Op_kind::read; }

/// Every read line starts with this; the request id follows, then
/// Op::line.
inline constexpr std::string_view k_read_head = R"({"op":"optimize","id":")";

/// One generated client operation.
struct Op {
  Op_kind kind = Op_kind::read;
  /// Index into Workload::instances (reads, observe, refit) or
  /// Workload::fresh (register_write).
  std::uint32_t instance = 0;
  /// Reads: the request line after its id. Writes: the whole line.
  std::string line;
  /// How a write's acknowledgement is matched: the registered name or
  /// the instance fingerprint.
  std::string ack_key;
};

/// A synthetic execution report for an observe op: a seeded plan and
/// per-stage tuple counts that follow each service's selectivity with
/// +-20% noise.
struct Synthetic_run {
  quest::model::Plan plan;
  std::vector<std::uint64_t> tuples_in;
  std::vector<std::uint64_t> tuples_out;
};
Synthetic_run synthetic_run(const Bench_instance& entry, std::uint64_t variant);

/// How the processes are started and the load is shaped.
struct Workload_spec {
  std::string name;
  std::size_t backends = 1;
  std::size_t backend_workers = 2;
  /// Replication factor behind quest_router; 0 = clients talk to the
  /// single backend directly.
  std::size_t router_replicas = 0;
  bool snapshots = false;
  /// Open-loop phase: fixed arrival rate (ops/s) for open_share of the
  /// run; 0 = closed loop only.
  double open_rate = 0.0;
  double open_share = 0.0;
  /// Client connections of both phases.
  std::size_t connections = 4;
  /// Closed-loop phase: requests in flight per connection.
  std::size_t closed_window = 1;
  /// Latency (and write latency) is read per window of this length of the
  /// latency phase, and reported at the quiet windows (see quiet()).
  double latency_window_s = 0.2;
  /// Throughput and CPU per request likewise, per window of this length
  /// of the closed-loop phase.
  double cpu_window_s = 0.5;
};

/// A generated workload: its instances, answers, and op stream.
class Workload {
 public:
  /// Generates the named workload from `seed`, including each read
  /// instance's reference optimum. Throws std::invalid_argument for an
  /// unknown name.
  Workload(std::string_view name, std::uint64_t seed);

  static const std::vector<std::string>& names();

  const Workload_spec& spec() const noexcept { return spec_; }
  const std::vector<Bench_instance>& instances() const noexcept {
    return instances_;
  }
  /// Instances registered only as writes during the run (fleet-mixed).
  const std::vector<Bench_instance>& fresh() const noexcept { return fresh_; }
  /// The instance registered under `name`, or nullptr.
  const Bench_instance* find(std::string_view name) const;
  const Bench_instance& target(const Op& op) const {
    return op.kind == Op_kind::register_write ? fresh_[op.instance]
                                              : instances_[op.instance];
  }

  /// The `index`-th op of stream `stream` (one stream per phase). The
  /// same seed, stream and index always give the same op.
  Op op(std::uint64_t stream, std::uint64_t index) const;
  /// One register op per instance, as every set-up sends them.
  std::vector<Op> registration_ops() const;
  /// What every set-up sends after registering the instances.
  std::vector<Op> warmup_ops() const;

 private:
  void make_small_hot();
  void make_engine_heavy();
  void make_fleet_mixed();
  void add_instance(std::vector<Bench_instance>& into, std::string name,
                    std::string family, quest::io::Instance_document doc);
  void compute_optima();
  Op read_op(std::uint32_t instance, std::string_view optimizer, bool cache,
             bool stream, std::uint64_t seed) const;
  Op observe_op(std::uint32_t instance, std::uint64_t variant) const;

  Workload_spec spec_;
  std::uint64_t seed_;
  std::vector<Bench_instance> instances_;
  std::vector<Bench_instance> fresh_;
};

}  // namespace questbench
