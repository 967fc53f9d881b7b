#include "engine/chain_planner.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/traversal.h"
#include "obs/obs.h"

namespace mrpa {

namespace {

bool FlattenChain(const PathExpr& expr, std::vector<EdgePattern>& out) {
  switch (expr.kind()) {
    case ExprKind::kAtom:
      out.push_back(expr.pattern());
      return true;
    case ExprKind::kEpsilon:
      return true;  // Identity of ⋈◦: contributes no step.
    case ExprKind::kJoin:
      return FlattenChain(*expr.children()[0], out) &&
             FlattenChain(*expr.children()[1], out);
    case ExprKind::kPower: {
      if (expr.children()[0]->kind() != ExprKind::kAtom) return false;
      for (size_t k = 0; k < expr.power(); ++k) {
        out.push_back(expr.children()[0]->pattern());
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::optional<std::vector<EdgePattern>> ExtractAtomChain(
    const PathExpr& expr) {
  std::vector<EdgePattern> steps;
  if (!FlattenChain(expr, steps)) return std::nullopt;
  return steps;
}

size_t EstimatePatternCardinality(const EdgeUniverse& universe,
                                  const EdgePattern& pattern) {
  size_t bound = universe.num_edges();

  // Each indexable positional constraint gives an exact count for that
  // position alone; the conjunction is at most the minimum of them.
  auto tail_count = [&](VertexId v) -> size_t {
    return v < universe.num_vertices() ? universe.OutEdges(v).size() : 0;
  };
  auto head_count = [&](VertexId v) -> size_t {
    return v < universe.num_vertices() ? universe.InEdgeIndices(v).size() : 0;
  };
  auto label_count = [&](LabelId l) -> size_t {
    return l < universe.num_labels() ? universe.LabelEdgeIndices(l).size()
                                     : 0;
  };

  const IdConstraint& tail = pattern.tail();
  if (!tail.IsUnconstrained() && !tail.negated()) {
    size_t total = 0;
    for (uint32_t v : *tail.ids()) total += tail_count(v);
    bound = std::min(bound, total);
  }
  const IdConstraint& head = pattern.head();
  if (!head.IsUnconstrained() && !head.negated()) {
    size_t total = 0;
    for (uint32_t v : *head.ids()) total += head_count(v);
    bound = std::min(bound, total);
  }
  const IdConstraint& label = pattern.label();
  if (!label.IsUnconstrained() && !label.negated()) {
    size_t total = 0;
    for (uint32_t l : *label.ids()) total += label_count(l);
    bound = std::min(bound, total);
  }
  return bound;
}

ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps) {
  ChainPlan plan;
  if (steps.empty()) return plan;
  plan.forward_seed_estimate =
      EstimatePatternCardinality(universe, steps.front());
  plan.backward_seed_estimate =
      EstimatePatternCardinality(universe, steps.back());
  plan.direction = plan.backward_seed_estimate < plan.forward_seed_estimate
                       ? ChainDirection::kBackward
                       : ChainDirection::kForward;
  return plan;
}

ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps,
                    const PlannerCostHints& hints) {
  ChainPlan plan = PlanChain(universe, steps);
  if (!hints.valid || steps.empty()) return plan;  // Degrade to the heuristic.
  plan.direction = hints.backward_cost < hints.forward_cost
                       ? ChainDirection::kBackward
                       : ChainDirection::kForward;
  return plan;
}

Result<PathSet> EvaluateChain(const EdgeUniverse& universe,
                              const std::vector<EdgePattern>& steps,
                              ChainDirection direction) {
  // Ungoverned: run under an unlimited context. The only possible trip is
  // an armed fault injector, surfaced as the injected error.
  ExecContext unlimited;
  Result<GovernedPathSet> result =
      EvaluateChainGoverned(universe, steps, direction, unlimited);
  if (!result.ok()) return result.status();
  if (result->truncated) return result->limit;
  return std::move(result->paths);
}

Result<PathSet> EvaluatePlanned(const PathExpr& expr,
                                const EdgeUniverse& universe,
                                const EvalOptions& options) {
  std::optional<std::vector<EdgePattern>> chain = ExtractAtomChain(expr);
  if (!chain.has_value()) return expr.Evaluate(universe, options);
  ChainPlan plan = PlanChain(universe, *chain);
  return EvaluateChain(universe, *chain, plan.direction);
}

Result<GovernedPathSet> EvaluatePlannedGoverned(const PathExpr& expr,
                                                const EdgeUniverse& universe,
                                                ExecContext& ctx,
                                                const EvalOptions& options) {
  obs::ObsRegistry* const reg = ctx.observer();
  ExecSpan plan_span(ctx, "planner.evaluate");
  std::optional<std::vector<EdgePattern>> chain = ExtractAtomChain(expr);
  if (!chain.has_value()) {
    // Non-chain fallback: the bottom-up evaluator has no salvageable
    // prefix, so a trip degrades to an empty truncated result.
    if (reg != nullptr) reg->Add(obs::Metric::kPlannerFallbacks, 1);
    EvalOptions governed = options;
    governed.exec = &ctx;
    Result<PathSet> evaluated = expr.Evaluate(universe, governed);
    GovernedPathSet out;
    if (evaluated.ok()) {
      out.paths = std::move(evaluated).value();
    } else if (ctx.Exceeded()) {
      out.truncated = true;
      out.limit = ctx.limit_status();
    } else {
      return evaluated.status();  // A real error, not a governance trip.
    }
    out.stats = ctx.Snapshot();
    return out;
  }
  ChainPlan plan = PlanChain(universe, *chain);
  if (reg != nullptr) {
    reg->Add(plan.direction == ChainDirection::kForward
                 ? obs::Metric::kPlannerPlansForward
                 : obs::Metric::kPlannerPlansBackward,
             1);
  }
  return EvaluateChainGoverned(universe, *chain, plan.direction, ctx);
}

}  // namespace mrpa
