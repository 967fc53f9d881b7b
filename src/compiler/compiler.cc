#include "compiler/compiler.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "regex/dfa_minimizer.h"

namespace mrpa {
namespace {

// Fixed-precision float rendering for ExplainPlan (std::to_string's 6
// digits are noisy and locale-independent formatting matters for goldens).
std::string Fixed2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return std::string(buf);
}

void AppendStatSuffix(const PassStats& stats, std::string& out) {
  std::string inner;
  auto add = [&inner](const char* key, size_t value) {
    if (value == 0) return;
    if (!inner.empty()) inner += ", ";
    inner += key;
    inner += "=";
    inner += std::to_string(value);
  };
  add("rewrites", stats.rewrites);
  add("dead_branches", stats.dead_branches);
  add("filters_pushed", stats.filters_pushed);
  add("prefixes_factored", stats.prefixes_factored);
  add("joins_reordered", stats.joins_reordered);
  if (!inner.empty()) out += " (" + inner + ")";
}

}  // namespace

Result<CompiledQuery> CompileQuery(const PathExprPtr& expr,
                                   const EdgeUniverse& universe,
                                   const CompileOptions& options) {
  if (expr == nullptr) {
    return Status::InvalidArgument("CompileQuery: null expression");
  }

  CompiledQuery query;
  query.universe_ = &universe;
  query.eval_ = options.eval;
  query.eval_.exec = nullptr;  // Run() threads the caller's context.
  query.source_ = expr->ToString();

  IrModule module;
  IrId root = module.Lower(*expr);
  if (options.optimize) {
    const std::vector<const Pass*>& passes =
        options.passes.empty() ? DefaultPassPipeline() : options.passes;
    PassContext pass_ctx;
    pass_ctx.universe = &universe;
    root = RunPipeline(module, root, passes, pass_ctx, &query.trace_,
                       options.registry);
  }
  query.plan_expr_ = module.ToExpr(root);

  // Plan emission: a pure atom chain runs the chain evaluator with the
  // direction chosen by the cost model — which degrades to the planner's
  // seed heuristic whenever its hints are invalid (no registry, no
  // recorded traversal history, or stale history). Emission is independent
  // of `optimize`: direction never changes the denoted set.
  if (std::optional<std::vector<EdgePattern>> chain =
          ExtractAtomChain(*query.plan_expr_);
      chain.has_value()) {
    const CostModel model(universe, options.registry);
    query.cost_calibrated_ = model.calibrated();
    query.cost_fanout_ = model.fanout();
    query.cost_hints_ = model.Hints(*chain);
    query.chain_plan_ = PlanChain(universe, *chain, query.cost_hints_);
    query.chain_steps_ = std::move(chain);
  }

  const IrNode& root_node = module.node(root);
  query.dfa_measurable_ = root_node.product_free && root_node.literal_free;

  if (options.registry != nullptr) {
    options.registry->Add(obs::Metric::kCompilerQueriesCompiled, 1);
  }
  return query;
}

Result<GovernedPathSet> CompiledQuery::Run(ExecContext& ctx) const {
  const ExecStats entry_stats = ctx.Snapshot();

  // An already-expired deadline (or cancelled token, or previously tripped
  // context) never starts speculation: fail closed with the empty truncated
  // result before doing any work. Deadline polling inside the evaluators is
  // strided, so without this check a short speculation could run to
  // completion under a dead deadline and leak a nonempty answer.
  if (!ctx.CheckDeadline().ok()) {
    GovernedPathSet out;
    out.truncated = true;
    out.limit = ctx.limit_status();
    out.stats = ctx.Snapshot();
    return out;
  }

  // Speculate under a quiet context: unlimited countable budgets, shared
  // absolute deadline and cancel token, fault probes off (ShardContext's
  // contract). Every correct plan computes the identical canonical set
  // here, so everything the caller can observe below is plan-independent.
  ExecContext quiet =
      ExecContext::ShardContext(ctx, ExecLimits::Unlimited());
  Result<PathSet> full = [&]() -> Result<PathSet> {
    if (is_chain()) {
      Result<GovernedPathSet> governed = EvaluateChainGoverned(
          *universe_, *chain_steps_, chain_plan_.direction, quiet);
      if (!governed.ok()) return governed.status();
      if (governed->truncated) return governed->limit;
      return std::move(governed->paths);
    }
    EvalOptions eval = eval_;
    eval.exec = &quiet;
    return plan_expr_->Evaluate(*universe_, eval);
  }();

  if (!full.ok()) {
    const StatusCode code = full.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      // The documented caveat: the speculation died on wall clock or
      // cancellation, so there is no canonical prefix to replay — an empty
      // truncated result carries the trip. Poll the caller's context so
      // its sticky status (deadline and token are shared) records it too.
      ctx.CheckDeadline();
      GovernedPathSet out;
      out.truncated = true;
      out.limit = ctx.limit_status().ok() ? full.status() : ctx.limit_status();
      out.stats = ctx.Snapshot();
      return out;
    }
    return full.status();  // A real error (hard limits, invalid input).
  }

  // Replay: charge the caller's context once per canonical path, in
  // canonical order, emitting while the checks pass. The sequence of
  // checks — and thus every counter, trip, and deterministic fault probe —
  // is a pure function of the canonical set and the context's state.
  std::vector<Path> emitted;
  emitted.reserve(full->size());
  for (const Path& path : full->paths()) {
    if (!ctx.CheckStep(1).ok()) break;
    if (!ctx.ChargePaths(1).ok()) break;
    if (!ctx.ChargeBytes(ApproxBytes(path)).ok()) break;
    emitted.push_back(path);
  }

  GovernedPathSet out;
  out.paths = PathSet::FromSortedUnique(std::move(emitted));
  out.truncated = ctx.Exceeded();
  out.limit = ctx.limit_status();
  out.stats = ctx.Snapshot();
  if (ctx.observer() != nullptr) {
    AddExecStatsDelta(*ctx.observer(), entry_stats, out.stats);
  }
  return out;
}

std::string CompiledQuery::ExplainPlan() const {
  std::string out;
  out += "query: " + source_ + "\n";
  out += "plan:  " + plan_expr_->ToString() + "\n";
  out += "passes:\n";
  if (trace_.empty()) {
    out += "  (none)\n";
  }
  for (const PassTraceEntry& entry : trace_) {
    out += "  " + entry.pass + ": " + std::to_string(entry.size_before) +
           " -> " + std::to_string(entry.size_after) + " nodes";
    AppendStatSuffix(entry.stats, out);
    out += "\n";
  }
  if (is_chain()) {
    out += "execution: chain steps=" + std::to_string(chain_steps_->size()) +
           " direction=" +
           (chain_plan_.direction == ChainDirection::kForward ? "forward"
                                                              : "backward") +
           " seeds fwd=" + std::to_string(chain_plan_.forward_seed_estimate) +
           " bwd=" + std::to_string(chain_plan_.backward_seed_estimate) + "\n";
  } else {
    out += "execution: evaluate\n";
  }
  if (cost_hints_.valid) {
    out += "cost: model fanout=" + Fixed2(cost_fanout_) +
           " fwd=" + Fixed2(cost_hints_.forward_cost) +
           " bwd=" + Fixed2(cost_hints_.backward_cost) + "\n";
  } else {
    out += "cost: heuristic (uncalibrated)\n";
  }
  if (!dfa_measurable_) return out;
  if (Result<DfaSizeReport> report =
          MeasureMinimization(*plan_expr_, *universe_);
      report.ok()) {
    out += "dfa: minimized=" + std::to_string(report->minimized_states) + "/" +
           std::to_string(report->materialized_states) +
           " states classes=" + std::to_string(report->edge_classes) + "\n";
  }
  return out;
}

}  // namespace mrpa
