// The query compiler: PathExpr → algebra IR → optimizer passes → an
// executable plan with a governed, replay-accounted executor.
//
// CompileQuery lowers a parsed expression (engine/parser.h) into the
// hash-consed IR (compiler/ir.h), runs the registered pass pipeline
// (compiler/passes.h), and emits the plan the existing engines consume:
// a pure ⋈◦ atom chain compiles to the chain evaluator with its direction
// chosen by the cost model (compiler/cost_model.h, degrading to the seed
// heuristic when ObsRegistry statistics are absent or stale); everything
// else compiles to the bottom-up evaluator over the optimized tree.
//
// Execution discipline (the query-level version of the PR 2 parallel-fold
// contract): Run() SPECULATES the plan under a quiet shard context —
// unlimited countable budgets, the caller's absolute deadline and cancel
// token, fault probes off — and then REPLAYS governance accounting against
// the caller's real ExecContext once per canonical result path, in
// canonical order (CheckStep, ChargePaths, ChargeBytes(ApproxBytes)),
// emitting each path only while the checks pass. Because every correct
// plan speculates the IDENTICAL canonical path set, the replay sequence —
// and therefore the governed output: paths, order, truncation flag, limit
// Status, and stats minus elapsed time — is byte-identical across plans
// for countable budgets and deterministic injected faults. That identity
// is the compiler's correctness contract, enforced pass-by-pass by the
// pipeline harness. Two documented caveats: a deadline/cancellation trip
// during speculation yields an EMPTY truncated result (there is no
// canonical prefix to salvage), and EvalOptions::limits (PathSetLimits)
// fails the bottom-up evaluator on INTERMEDIATE sets, which are plan-
// dependent (chain plans have none) — leave it unlimited when differential
// identity matters.

#ifndef MRPA_COMPILER_COMPILER_H_
#define MRPA_COMPILER_COMPILER_H_

#include <optional>
#include <string>
#include <vector>

#include "compiler/cost_model.h"
#include "compiler/ir.h"
#include "compiler/passes.h"
#include "core/edge_universe.h"
#include "core/expr.h"
#include "core/path_set.h"
#include "engine/chain_planner.h"
#include "obs/obs.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {

struct CompileOptions {
  // When false the pass pipeline is skipped entirely — the compiled plan
  // is the input expression as written. This is the differential oracle.
  bool optimize = true;
  // Pipeline override; empty means DefaultPassPipeline() (when optimizing).
  std::vector<const Pass*> passes;
  // Star-expansion bound and intermediate-set limits for the evaluators.
  // eval.exec is ignored — Run() supplies the context.
  EvalOptions eval;
  // Optional: receives compiler.* counters/histograms at compile time and
  // calibrates the cost model; may be null.
  obs::ObsRegistry* registry = nullptr;
};

class CompiledQuery {
 public:
  // The optimized (or verbatim, when !optimize) expression the plan runs.
  const PathExprPtr& plan_expr() const { return plan_expr_; }

  // Chain emission: non-empty steps mean the plan runs the chain evaluator.
  bool is_chain() const { return chain_steps_.has_value(); }
  const std::vector<EdgePattern>& chain_steps() const { return *chain_steps_; }
  const ChainPlan& chain_plan() const { return chain_plan_; }
  const PlannerCostHints& cost_hints() const { return cost_hints_; }
  bool cost_model_calibrated() const { return cost_calibrated_; }

  // One entry per executed pass, in pipeline order.
  const std::vector<PassTraceEntry>& pass_trace() const { return trace_; }

  // Speculate + replay, as documented above. `ctx` carries the budgets,
  // deadline, cancellation, fault probes, and (optionally) an ObsRegistry.
  Result<GovernedPathSet> Run(ExecContext& ctx) const;

  // Deterministic multi-line plan rendering (golden-tested): the source and
  // optimized expressions, the per-pass trace, the emitted execution
  // strategy with the cost model's verdict, and, for product- and
  // literal-free plans, the DFA minimization report (measured here, not at
  // compile time: it scans the universe). No timing, no pointers —
  // identical plans print identically.
  std::string ExplainPlan() const;

 private:
  friend Result<CompiledQuery> CompileQuery(const PathExprPtr& expr,
                                            const EdgeUniverse& universe,
                                            const CompileOptions& options);

  const EdgeUniverse* universe_ = nullptr;
  EvalOptions eval_;
  std::string source_;
  PathExprPtr plan_expr_;
  std::optional<std::vector<EdgePattern>> chain_steps_;
  ChainPlan chain_plan_;
  PlannerCostHints cost_hints_;
  bool cost_calibrated_ = false;
  double cost_fanout_ = 0.0;
  std::vector<PassTraceEntry> trace_;
  // The plan is product- and literal-free: ExplainPlan's DFA report applies.
  bool dfa_measurable_ = false;
};

// Lowers, optimizes, and plans `expr` against `universe`. The universe
// reference must outlive the returned query. Fails only on structurally
// invalid input (null expression).
Result<CompiledQuery> CompileQuery(const PathExprPtr& expr,
                                   const EdgeUniverse& universe,
                                   const CompileOptions& options = {});

}  // namespace mrpa

#endif  // MRPA_COMPILER_COMPILER_H_
