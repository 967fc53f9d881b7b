// A cardinality-guided evaluation planner for join chains — the seed of the
// query optimizer a production traversal engine would grow around the
// algebra.
//
// The §III fold (core/traversal.h) always evaluates A₁ ⋈◦ A₂ ⋈◦ ... ⋈◦ Aₙ
// left to right. That is the wrong order when the chain is
// destination-selective: E ⋈◦ E ⋈◦ [_,_,v] seeds with ALL of E and prunes
// only at the last step, while the same query evaluated right to left seeds
// with v's in-edges and stays small throughout. ⋈◦ is associative (the
// paper proves it), so both orders denote the same set — the planner just
// picks the cheaper seed end using index statistics:
//
//   1. ExtractAtomChain: is the expression a pure ⋈◦ chain of atoms?
//   2. EstimatePatternCardinality: exact-or-upper-bound edge counts from
//      the universe's indices (no data scan).
//   3. PlanChain: compare the two chain ends, pick a direction.
//   4. EvaluateChain: run the fold forward, or backward (extending paths at
//      their tail via the in-index) — one fold kernel either way
//      (core/fold_kernel.h).
//
// Experiment E12 (bench_planner) measures the ablation: planned vs naive on
// selectivity-skewed chains.

#ifndef MRPA_ENGINE_CHAIN_PLANNER_H_
#define MRPA_ENGINE_CHAIN_PLANNER_H_

#include <optional>
#include <vector>

#include "core/edge_pattern.h"
#include "core/edge_universe.h"
#include "core/expr.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "util/status.h"

namespace mrpa {

// Flattens `expr` into its ⋈◦ chain of atom patterns, if it is one
// (arbitrary nesting of kJoin over kAtom leaves; kEpsilon leaves vanish).
// Returns nullopt for anything else — union, star, product, literals.
std::optional<std::vector<EdgePattern>> ExtractAtomChain(const PathExpr& expr);

// |{e ∈ E : pattern matches e}|, exactly when an index answers it (point
// tail / head / label constraints, including small sets), otherwise an
// upper bound (|E|). Never scans edge data.
size_t EstimatePatternCardinality(const EdgeUniverse& universe,
                                  const EdgePattern& pattern);

struct ChainPlan {
  ChainDirection direction = ChainDirection::kForward;
  size_t forward_seed_estimate = 0;
  size_t backward_seed_estimate = 0;
};

// Picks the cheaper seed end. Empty chains plan forward trivially.
ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps);

// Whole-chain cost estimates from a calibrated cost model (the compiler's
// src/compiler/cost_model.h propagates per-step selectivities through the
// frontier recurrence, scaled by observed ObsRegistry level widths). The
// costs are abstract frontier work, comparable only against each other.
// `valid = false` — the default, and what the cost model emits when its
// registry statistics are absent or stale — makes the hinted overload
// below degrade to the seed-comparison heuristic exactly.
struct PlannerCostHints {
  bool valid = false;
  double forward_cost = 0.0;
  double backward_cost = 0.0;
};

// PlanChain with a cost model: direction follows the cheaper whole-chain
// estimate when `hints.valid`, and the heuristic above otherwise. The seed
// estimates in the returned plan are the index counts either way.
ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps,
                    const PlannerCostHints& hints);

// Evaluates the chain in the given direction; both directions produce the
// identical path set (⋈◦ associativity). The governed form,
// EvaluateChainGoverned, and ChainDirection live in core/traversal.h beside
// the fold they run.
Result<PathSet> EvaluateChain(const EdgeUniverse& universe,
                              const std::vector<EdgePattern>& steps,
                              ChainDirection direction);

// One-call form: extract, plan, evaluate; falls back to PathExpr::Evaluate
// for non-chain expressions, which it evaluates exactly as written (a
// closure collapse such as (R*)* = R* is false under max_star_expansion).
// `options` bounds only that fallback.
Result<PathSet> EvaluatePlanned(const PathExpr& expr,
                                const EdgeUniverse& universe,
                                const EvalOptions& options = {});

// Governed one-call form. For atom chains the trip yields a truncated
// partial result; for the PathExpr::Evaluate fallback a trip yields an
// empty truncated result (the evaluator materializes bottom-up, so there
// is no meaningful prefix to salvage) — `limit` carries the Status either
// way.
Result<GovernedPathSet> EvaluatePlannedGoverned(const PathExpr& expr,
                                                const EdgeUniverse& universe,
                                                ExecContext& ctx,
                                                const EvalOptions& options = {});

}  // namespace mrpa

#endif  // MRPA_ENGINE_CHAIN_PLANNER_H_
