#include "checker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "quest/model/cost.hpp"
#include "quest/model/plan.hpp"

namespace questbench {

std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::ok: return "ok";
    case Verdict::missing_cost: return "missing-cost";
    case Verdict::not_permutation: return "not-a-permutation";
    case Verdict::violates_precedence: return "violates-precedence";
    case Verdict::cost_not_reproduced: return "cost-not-reproduced";
    case Verdict::not_optimal: return "not-optimal";
  }
  return "unknown";
}

bool matches_optimum(double cost, double optimum) {
  const double scale = std::max({std::fabs(cost), std::fabs(optimum), 1.0});
  return std::fabs(cost - optimum) <= k_optimum_tolerance * scale;
}

Verdict check_result(const quest::model::Instance& instance,
                     const quest::constraints::Precedence_graph* precedence,
                     double optimum, const std::vector<std::uint32_t>& plan,
                     std::optional<double> reported_cost) {
  if (!reported_cost) return Verdict::missing_cost;
  const quest::model::Plan order(
      std::vector<quest::model::Service_id>(plan.begin(), plan.end()));
  if (!order.is_permutation_of(instance.size())) {
    return Verdict::not_permutation;
  }
  if (precedence != nullptr && !precedence->respects(order.order())) {
    return Verdict::violates_precedence;
  }
  const double recomputed = quest::model::bottleneck_cost(instance, order);
  if (std::bit_cast<std::uint64_t>(recomputed) !=
      std::bit_cast<std::uint64_t>(*reported_cost)) {
    return Verdict::cost_not_reproduced;
  }
  if (!matches_optimum(*reported_cost, optimum)) return Verdict::not_optimal;
  return Verdict::ok;
}

}  // namespace questbench
