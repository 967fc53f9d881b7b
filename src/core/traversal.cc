#include "core/traversal.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/fold_kernel.h"
#include "core/path_arena.h"
#include "obs/obs.h"

namespace mrpa {

namespace {

// The governed fold of ⋈◦ over per-step edge sets, from either end of the
// chain, run ARENA-NATIVE: the frontier is a vector of PathNodeIds into a
// prefix-sharing PathArena (core/path_arena.h), so each extension is one
// 16-byte node push instead of a full prefix copy, and the result set is
// materialized once at the end. Each level's body — strategy choice and
// per-source expansion under the guard sequence — is the fold kernel
// (core/fold_kernel.h), shared with the parallel shard speculation.
//
// Forward (the §III fold): frontier node ids are appended in canonical
// order — the previous level is iterated in canonical order and out-runs
// are visited in (label, head) order, so same-length extensions preserve
// prefix order, and distinct parents and distinct edges make every staged
// path unique. The final materialization adopts via
// PathSet::FromSortedUnique — no sort, no dedup.
//
// Backward: frontier nodes chain SUFFIXES (a node's edge is the first edge
// of its path), so extending at the tail is one node push and γ−(p) is one
// load. Tail extensions do not preserve canonical order (the new edge
// varies at the FRONT of the path), so each level is re-sorted with
// CompareSuffix (front-first, without materializing). Suffixes are distinct
// by construction, so there is no dedup pass either.
//
// Two failure regimes coexist:
//   * limits.max_paths (the pre-governance API) stays a hard error — the
//     whole evaluation returns ResourceExhausted with no partial result.
//   * ctx budgets trip gracefully — the fold stops and reports whatever
//     full-length paths it already yielded, flagged `truncated`.
// The path budget is charged only for full-length (final level) paths, so
// a forward budget of k yields the k first full-length paths in canonical
// order — the same prefix StepPathIterator yields under the same budget.
// The byte budget is charged the exact arena cost: PathArena::kNodeBytes per
// staged extension.
template <ChainDirection kEnd>
Result<GovernedPathSet> Fold(const EdgeUniverse& universe,
                             const std::vector<EdgePattern>& steps,
                             const PathSetLimits& limits,
                             const frontier::DensityPolicy& base_policy,
                             ExecContext& ctx) {
  constexpr bool kForward = kEnd == ChainDirection::kForward;
  GovernedPathSet out;
  // Observability is boundary-only: snapshot the guard on entry, flush the
  // deltas (and the run's breakdown) once on every graceful exit. With no
  // registry attached, the fold below runs its hot loops unchanged.
  obs::ObsRegistry* const reg = ctx.observer();
  ExecStats obs_before;
  if (reg != nullptr) obs_before = ctx.Snapshot();

  if (steps.empty()) {
    // The 0-step traversal denotes {ε}; ε still counts against the budget.
    if (Status trip = ctx.ChargePaths(); !trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
    } else {
      out.paths = PathSet::EpsilonSet();
    }
    if (reg != nullptr) {
      reg->Add(obs::Metric::kTraversalRuns, 1);
      reg->Add(obs::Metric::kTraversalPathsEmitted, out.paths.size());
      AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
    }
    out.stats = ctx.Snapshot();
    return out;
  }

  const size_t hard_limit =
      limits.max_paths.value_or(std::numeric_limits<size_t>::max());
  const size_t last_level = steps.size() - 1;
  // The step that extends level k (level 0 is the seed).
  auto step_at = [&](size_t k) -> const EdgePattern& {
    return kForward ? steps[k] : steps[last_level - k];
  };
  Status trip;

  PathArena arena;
  std::vector<PathNodeId> frontier;
  std::vector<PathNodeId> next;

  // With traversal history in the registry, the auto thresholds are
  // re-anchored on the observed level widths.
  frontier::DensityPolicy policy = base_policy;
  if (reg != nullptr && policy.mode == frontier::DensityMode::kAuto) {
    policy = frontier::CalibrateDensityPolicy(
        policy, reg, universe.num_vertices(), universe.num_edges());
  }
  FoldKernel<kEnd> kernel(universe, arena, ctx, policy, hard_limit, reg);

  ExecSpan run_span(ctx, kForward ? "traverse" : "chain.backward");
  size_t seed_edges = 0;
  size_t levels_run = 0;
  // Every graceful return passes through here, flushing the run's
  // observability once; the hard max_paths overflow (a legacy error, not a
  // governed result) does not — it reports nothing, matching its
  // no-partial-result contract.
  auto finish = [&]() {
    if (reg != nullptr) {
      reg->Add(obs::Metric::kTraversalRuns, 1);
      reg->Add(obs::Metric::kTraversalSeedEdges, seed_edges);
      reg->Add(obs::Metric::kTraversalLevels, levels_run);
      reg->Add(obs::Metric::kTraversalPathsEmitted, out.paths.size());
      kernel.FlushTelemetry(reg);
      AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
      FlushArenaStats(arena, reg);
    }
    out.stats = ctx.Snapshot();
    return std::move(out);
  };

  // Materializes a frontier of `length`-edge chains into the canonical
  // PathSet — the single API-boundary copy the arena representation defers
  // everything to.
  auto materialize = [&](const std::vector<PathNodeId>& ids, size_t length) {
#ifndef NDEBUG
    if constexpr (kForward) arena.CheckCanonicalLevel(ids, length);
#endif
    std::vector<Path> paths;
    paths.reserve(ids.size());
    for (PathNodeId id : ids) {
      Path p;
      if constexpr (kForward) {
        arena.MaterializePrefixInto(id, length, p);
      } else {
        arena.MaterializeSuffixInto(id, length, p);
      }
      paths.push_back(std::move(p));
    }
    return PathSet::FromSortedUnique(std::move(paths));
  };

  // Seed level: lift the end step's matching edges (CollectMatchingEdges is
  // canonical) into length-1 chains.
  {
    ExecSpan seed_span(ctx, "traverse.level", /*level=*/0);
    const std::vector<Edge> seeds = CollectMatchingEdges(universe, step_at(0));
    const size_t admitted = AdmitSeeds(seeds.size(), last_level == 0, ctx);
    if (admitted < seeds.size()) trip = ctx.limit_status();
    frontier.reserve(admitted);
    for (size_t i = 0; i < admitted; ++i) {
      frontier.push_back(arena.AddRoot(seeds[i]));
    }
  }
  seed_edges = frontier.size();
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    if (last_level == 0) out.paths = materialize(frontier, 1);
    return finish();
  }

  for (size_t k = 1; k <= last_level && !frontier.empty(); ++k) {
    ++levels_run;
    if (reg != nullptr) {
      reg->Record(obs::Hist::kTraversalLevelWidth, frontier.size());
    }
    ExecSpan level_span(ctx, "traverse.level", static_cast<int64_t>(k));
    const bool final_level = k == last_level;
    kernel.BeginLevel(step_at(k), final_level, frontier);
    next.clear();
    for (PathNodeId source : frontier) {
      const SourceRecord record = kernel.Expand(source, next);
      if (record.end == RunEnd::kComplete) continue;
      if (record.end == RunEnd::kTripHard) return HardOverflow(hard_limit);
      trip = ctx.limit_status();
      break;
    }
    if constexpr (!kForward) {
      std::sort(next.begin(), next.end(), [&](PathNodeId a, PathNodeId b) {
        return arena.CompareSuffix(a, b) < 0;
      });
    }
    if (!trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
      if (final_level) out.paths = materialize(next, k + 1);
      return finish();
    }
    frontier.swap(next);
  }
  out.paths = materialize(frontier, steps.size());
  return finish();
}

// The pre-arena fold, retained verbatim as the differential oracle (the
// arena ⇄ materialized identity suites) and the E17 baseline: every
// extension copies its full prefix into a fresh Path and every level is
// canonicalized through PathSetBuilder. Byte charges use the SAME
// PathArena::kNodeBytes unit as the arena fold, so the two engines are
// byte-identical under every governed regime — they differ only in how the
// paths are stored while the fold runs.
Result<GovernedPathSet> FoldJoinMaterialized(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    const PathSetLimits& limits, ExecContext& ctx) {
  GovernedPathSet out;
  if (steps.empty()) {
    if (Status trip = ctx.ChargePaths(); !trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
    } else {
      out.paths = PathSet::EpsilonSet();
    }
    out.stats = ctx.Snapshot();
    return out;
  }

  const size_t hard_limit =
      limits.max_paths.value_or(std::numeric_limits<size_t>::max());
  const size_t last_level = steps.size() - 1;
  Status trip;

  PathSetBuilder builder;
  for (const Edge& e : CollectMatchingEdges(universe, steps.front())) {
    if (!ctx.CheckStep().ok() ||
        (last_level == 0 && !ctx.ChargePaths().ok()) ||
        !ctx.ChargeBytes(PathArena::kNodeBytes).ok()) {
      trip = ctx.limit_status();
      break;
    }
    builder.Add(Path(e));
  }
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    if (last_level == 0) out.paths = builder.Build();
    out.stats = ctx.Snapshot();
    return out;
  }
  PathSet acc = builder.Build();

  for (size_t k = 1; k < steps.size() && !acc.empty(); ++k) {
    const EdgePattern& step = steps[k];
    const bool final_level = k == last_level;
    Status overflow;
    for (const Path& p : acc) {
      size_t expanded = 0;
      ForEachMatchingOutEdge(universe, p.Head(), step, [&](const Edge& e) {
        if (!overflow.ok() || !trip.ok()) return;
        if (builder.staged_size() >= hard_limit) {
          overflow = Status::ResourceExhausted(
              "traversal exceeded max_paths = " + std::to_string(hard_limit));
          return;
        }
        if (final_level && !ctx.ChargePaths().ok()) {
          trip = ctx.limit_status();
          return;
        }
        ++expanded;
        Path extended = p;  // The O(level) prefix copy the arena eliminates.
        extended.Append(e);
        builder.Add(std::move(extended));
      });
      if (!overflow.ok()) return overflow;
      if (trip.ok() && (!ctx.CheckStep(expanded + 1).ok() ||
                        !ctx.ChargeBytes(expanded * PathArena::kNodeBytes)
                             .ok())) {
        trip = ctx.limit_status();
      }
      if (!trip.ok()) break;
    }
    if (!trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
      if (final_level) out.paths = builder.Build();
      out.stats = ctx.Snapshot();
      return out;
    }
    acc = builder.Build();
  }
  out.paths = std::move(acc);
  out.stats = ctx.Snapshot();
  return out;
}

// The ungoverned entry points run under a fresh unlimited context; the only
// way it can trip is an armed fault injector, which is surfaced as the
// error the injector prescribed.
Result<PathSet> FoldJoinStrict(const EdgeUniverse& universe,
                               const std::vector<EdgePattern>& steps,
                               const PathSetLimits& limits,
                               const frontier::DensityPolicy& policy = {}) {
  ExecContext unlimited;
  Result<GovernedPathSet> result = Fold<ChainDirection::kForward>(
      universe, steps, limits, policy, unlimited);
  if (!result.ok()) return result.status();
  if (result->truncated) return result->limit;
  return std::move(result->paths);
}

std::vector<EdgePattern> UniformSteps(size_t n, const EdgePattern& pattern) {
  return std::vector<EdgePattern>(n, pattern);
}

}  // namespace

Result<PathSet> CompleteTraversal(const EdgeUniverse& universe, size_t n,
                                  const PathSetLimits& limits) {
  return FoldJoinStrict(universe, UniformSteps(n, EdgePattern::Any()), limits);
}

Result<PathSet> SourceTraversal(const EdgeUniverse& universe,
                                const std::vector<VertexId>& sources, size_t n,
                                bool complement, const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.front() = EdgePattern::FromAnyOf(sources, complement);
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> DestinationTraversal(const EdgeUniverse& universe,
                                     const std::vector<VertexId>& destinations,
                                     size_t n, bool complement,
                                     const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.back() = EdgePattern::IntoAnyOf(destinations, complement);
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> SourceDestinationTraversal(
    const EdgeUniverse& universe, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& destinations, size_t n,
    const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.front() = EdgePattern::FromAnyOf(sources);
  if (n == 1) {
    // A single step must satisfy both restrictions at once.
    steps.front() = EdgePattern(IdConstraint(sources), IdConstraint(),
                                IdConstraint(destinations));
  } else {
    steps.back() = EdgePattern::IntoAnyOf(destinations);
  }
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> LabeledTraversal(
    const EdgeUniverse& universe,
    const std::vector<std::vector<LabelId>>& step_labels,
    const PathSetLimits& limits) {
  std::vector<EdgePattern> steps;
  steps.reserve(step_labels.size());
  for (const std::vector<LabelId>& labels : step_labels) {
    steps.push_back(labels.empty() ? EdgePattern::Any()
                                   : EdgePattern::LabeledAnyOf(labels));
  }
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> Traverse(const EdgeUniverse& universe,
                         const TraversalSpec& spec) {
  return FoldJoinStrict(universe, spec.steps, spec.limits, spec.density);
}

Result<GovernedPathSet> TraverseGoverned(const EdgeUniverse& universe,
                                         const TraversalSpec& spec,
                                         ExecContext& ctx) {
  return Fold<ChainDirection::kForward>(universe, spec.steps, spec.limits,
                                        spec.density, ctx);
}

Result<GovernedPathSet> EvaluateChainGoverned(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    ChainDirection direction, ExecContext& ctx, const PathSetLimits& limits,
    const frontier::DensityPolicy& density) {
  if (direction == ChainDirection::kForward) {
    return Fold<ChainDirection::kForward>(universe, steps, limits, density,
                                          ctx);
  }
  return Fold<ChainDirection::kBackward>(universe, steps, limits, density,
                                         ctx);
}

Result<GovernedPathSet> TraverseGovernedMaterialized(
    const EdgeUniverse& universe, const TraversalSpec& spec,
    ExecContext& ctx) {
  return FoldJoinMaterialized(universe, spec.steps, spec.limits, ctx);
}

}  // namespace mrpa
