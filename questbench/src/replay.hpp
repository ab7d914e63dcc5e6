// The in-process half of the traced run: the workload's own generated
// requests replayed through each quest layer's public functions, every
// call wrapped in a span of the benchmark's log. Nothing inside quest is
// instrumented; the spans sit at the layer boundaries.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace questbench {

/// Per-layer metric name -> value.
using Metrics = std::map<std::string, double>;

/// CPU seconds (of this whole process) one in-process optimize of each
/// read instance took, by engine.
struct Engine_cpu {
  std::vector<double> bnb;
  std::vector<double> bnb_par_2t;
};

/// Replays `workload` through the codec, instance fingerprinting, cost
/// model keys, the plan cache, the engines, the evaluator, the server's
/// admission, the session layer (over a Transport owned by the
/// benchmark), snapshots and the adaptive loop. Snapshot files go under
/// `work_dir`. Adds the layer metrics to `metrics` and fills
/// `engine_cpu`.
void replay_layers(const Workload& workload, const std::string& work_dir,
                   Span_log& log, Metrics& metrics, Engine_cpu& engine_cpu);

}  // namespace questbench
