// The correctness gate: every result event the servers send is checked
// against an optimum the benchmark computed itself, in-process, with an
// independent exact engine (dp).

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "quest/constraints/precedence.hpp"
#include "quest/model/instance.hpp"

namespace questbench {

enum class Verdict {
  ok,
  /// The result carried no cost (an incomplete or cancelled search).
  missing_cost,
  /// The plan is not a permutation of the instance's services.
  not_permutation,
  /// The plan breaks a precedence edge of the instance.
  violates_precedence,
  /// model::bottleneck_cost of the plan differs from the reported cost
  /// in any bit.
  cost_not_reproduced,
  /// The cost is not the reference optimum.
  not_optimal,
};

std::string_view to_string(Verdict verdict);

/// Relative tolerance between two exact engines' optima — the one the
/// repository's cross-engine agreement tests use. Distinct optimal plans
/// may round their bottleneck term differently in the last bits.
inline constexpr double k_optimum_tolerance = 1e-9;

/// Whether `cost` equals the reference optimum within k_optimum_tolerance.
bool matches_optimum(double cost, double optimum);

/// Checks one result: the plan is a valid ordering of `instance`, its
/// Eq. 1 cost under the default cost model reproduces `reported_cost`
/// bit for bit, and that cost is the reference `optimum`.
Verdict check_result(const quest::model::Instance& instance,
                     const quest::constraints::Precedence_graph* precedence,
                     double optimum, const std::vector<std::uint32_t>& plan,
                     std::optional<double> reported_cost);

}  // namespace questbench
