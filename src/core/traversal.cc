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
// A budget, deadline or cancellation trips gracefully: the fold stops and
// reports whatever full-length paths it already yielded, flagged
// `truncated`. The path budget is charged only for full-length (final
// level) paths, so a forward budget of k yields the k first full-length
// paths in canonical order — the same prefix StepPathIterator yields under
// the same budget. The byte budget is charged the exact arena cost:
// PathArena::kNodeBytes per staged extension. `seeds`, when given, are the
// end step's matching edges as CollectMatchingEdges returns them (the count
// fold hands over the ones it already collected).
template <ChainDirection kEnd>
GovernedPathSet Fold(const EdgeUniverse& universe,
                     const std::vector<EdgePattern>& steps,
                     const frontier::DensityPolicy& base_policy,
                     ExecContext& ctx,
                     std::optional<std::vector<Edge>> seeds = {}) {
  constexpr bool kForward = kEnd == ChainDirection::kForward;
  GovernedPathSet out;
  // Observability is boundary-only: snapshot the guard on entry, flush the
  // deltas (and the run's breakdown) once on every exit. With no
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
  FoldKernel<kEnd> kernel(universe, arena, ctx, policy, reg);

  ExecSpan run_span(ctx, kForward ? "traverse" : "chain.backward");
  size_t seed_edges = 0;
  size_t levels_run = 0;
  // Every return passes through here, flushing the run's observability
  // once.
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
    if (!seeds.has_value()) seeds = CollectMatchingEdges(universe, step_at(0));
    const size_t admitted = AdmitSeeds(seeds->size(), last_level == 0, ctx);
    if (admitted < seeds->size()) trip = ctx.limit_status();
    frontier.reserve(admitted);
    for (size_t i = 0; i < admitted; ++i) {
      frontier.push_back(arena.AddRoot((*seeds)[i]));
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
      if (kernel.Expand(source, next).end == RunEnd::kComplete) continue;
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

constexpr uint64_t kSaturated = std::numeric_limits<uint64_t>::max();

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? kSaturated : sum;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product;
  return __builtin_mul_overflow(a, b, &product) ? kSaturated : product;
}

// `paths` chains of one count-fold level end at `vertex`, their open end.
struct Multiplicity {
  VertexId vertex;
  uint64_t paths;
};

// Merges a level's (vertex, multiplicity) pairs into its run: one entry
// per distinct open end, sorted by vertex. Levels of 64 pairs or more are
// sorted by an LSD radix sort over the bytes that ids below `num_vertices`
// use — a few linear passes through `spare`, where a comparison sort
// mispredicts on every other compare of a level's scattered ids; below
// that, the passes' fixed 256-bucket cost outweighs a comparison sort
// (EXPERIMENTS.md E25: with three passes the two break even near 32 pairs,
// and the radix sort is 2.4x faster at 64 and 5x at 4,096).
void MergeByVertex(std::vector<Multiplicity>& level, uint32_t num_vertices,
                   std::vector<Multiplicity>& spare) {
  if (level.size() < 64) {
    std::sort(level.begin(), level.end(),
              [](const Multiplicity& a, const Multiplicity& b) {
                return a.vertex < b.vertex;
              });
  } else {
    spare.resize(level.size());
    for (uint32_t shift = 0; shift < 32 && (num_vertices - 1) >> shift != 0;
         shift += 8) {
      size_t starts[257] = {};
      for (const Multiplicity& m : level) {
        ++starts[((m.vertex >> shift) & 0xff) + 1];
      }
      for (size_t b = 0; b < 256; ++b) starts[b + 1] += starts[b];
      for (const Multiplicity& m : level) {
        spare[starts[(m.vertex >> shift) & 0xff]++] = m;
      }
      level.swap(spare);
    }
  }
  size_t kept = 0;
  for (const Multiplicity& m : level) {
    if (kept > 0 && level[kept - 1].vertex == m.vertex) {
      level[kept - 1].paths = SaturatingAdd(level[kept - 1].paths, m.paths);
    } else {
      level[kept++] = m;
    }
  }
  level.resize(kept);
}

// Prefetches what the walks a few run entries ahead will read: a level's
// vertices are scattered over the graph, so each walk would otherwise start
// with cache misses. Forward that is the out-run; backward the in-index run,
// and two entries ahead (its index run fetched by then) the edges it names.
template <ChainDirection kEnd>
void PrefetchAhead(const EdgeUniverse& universe,
                   const std::vector<Multiplicity>& level, size_t i) {
  constexpr size_t kAhead = 4;
  if (i + kAhead < level.size()) {
    const VertexId v = level[i + kAhead].vertex;
    if constexpr (kEnd == ChainDirection::kForward) {
      __builtin_prefetch(universe.OutEdges(v).data());
    } else {
      __builtin_prefetch(universe.InEdgeIndices(v).data());
    }
  }
  if constexpr (kEnd == ChainDirection::kBackward) {
    if (i + kAhead / 2 < level.size()) {
      const std::span<const Edge> all = universe.AllEdges();
      for (EdgeIndex idx :
           universe.InEdgeIndices(level[i + kAhead / 2].vertex)) {
        __builtin_prefetch(&all[idx]);
      }
    }
  }
}

// What one level of the enumerating fold charges, or, as the room the
// budgets leave, may still charge.
struct LevelCharge {
  uint64_t steps = 0;
  uint64_t bytes = 0;
};

// The count fold behind CountChainGoverned (contract in core/traversal.h).
// It runs the enumerating fold's level loop over multiplicities: a level is
// the sorted run of (open end u, c(u) = chains ending at u), and extending
// it by a step visits each distinct u's matching edges once, through the
// same per-vertex walk as FoldKernel::Expand. With m(u) the matches at u,
// enumeration would charge, per level, Σ c(u)·SourceSteps(m(u)) steps and
// Σ c(u)·SourceBytes(m(u)) bytes, plus Σ c(u)·m(u) paths on the final level
// (the seed level: kSeedSteps and kSeedBytes per seed, and one path each
// when it is also the final level). The running totals only grow, so the
// fold gives up for enumeration as soon as one passes its budget: after
// the seeds are collected, before any run is built, and then after each
// vertex walked.
template <ChainDirection kEnd>
Result<GovernedCount> CountFold(const EdgeUniverse& universe,
                                const std::vector<EdgePattern>& steps,
                                ExecContext& ctx) {
  constexpr bool kForward = kEnd == ChainDirection::kForward;
  // Enumerate-then-reduce: the definition the fold matches, and the
  // fallback whenever a countable budget would trip.
  std::optional<std::vector<Edge>> seeds;
  auto enumerate = [&]() -> Result<GovernedCount> {
    GovernedPathSet enumerated =
        Fold<kEnd>(universe, steps, {}, ctx, std::move(seeds));
    GovernedCount reduced;
    reduced.count = enumerated.paths.size();
    reduced.truncated = enumerated.truncated;
    reduced.limit = std::move(enumerated.limit);
    reduced.stats = enumerated.stats;
    return reduced;
  };
  if (steps.empty()) return enumerate();  // {ε}: one ChargePaths.

  obs::ObsRegistry* const reg = ctx.observer();
  const ExecStats before = ctx.Snapshot();
  const ExecLimits remaining = ctx.RemainingLimits();
  ExecSpan run_span(ctx, kForward ? "count" : "count.backward");
  GovernedCount out;
  auto finish = [&]() -> Result<GovernedCount> {
    if (reg != nullptr) AddExecStatsDelta(*reg, before, ctx.Snapshot());
    return std::move(out);
  };
  // A poll or an injected fault tripped the context: count 0, truncated.
  auto tripped = [&]() {
    out.truncated = true;
    out.limit = ctx.limit_status();
    out.stats = ctx.Snapshot();
    return finish();
  };

  const size_t last_level = steps.size() - 1;
  auto step_at = [&](size_t k) -> const EdgePattern& {
    return kForward ? steps[k] : steps[last_level - k];
  };
  auto open_end = [](const Edge& e) { return kForward ? e.head : e.tail; };
  std::vector<LevelCharge> charges(steps.size());
  uint64_t total_steps = 0;  // Of the levels charged so far.
  uint64_t total_bytes = 0;
  uint64_t total_paths = 0;  // Full-length chains: the final level's.
  // The room the step and byte budgets leave after the levels so far. The
  // totals only grow, so a level whose charge passes its room would trip.
  // Unlimited is kSaturated, which even a saturated total fits (the
  // overflow check below takes that case).
  auto room = [&]() -> LevelCharge {
    auto left = [](const std::optional<size_t>& budget, uint64_t used) {
      return budget.has_value() ? *budget - used : kSaturated;
    };
    return {left(remaining.max_steps, total_steps),
            left(remaining.max_bytes, total_bytes)};
  };
  auto passes = [](const LevelCharge& charge, const LevelCharge& room) {
    return charge.steps > room.steps || charge.bytes > room.bytes;
  };
  const uint64_t path_room = remaining.max_paths.value_or(kSaturated);

  if (!ctx.CheckDeadline().ok()) return tripped();
  seeds = CollectMatchingEdges(universe, step_at(0));
  charges[0] = {SaturatingMul(seeds->size(), kSeedSteps),
                SaturatingMul(seeds->size(), kSeedBytes)};
  if (last_level == 0) total_paths = seeds->size();
  if (passes(charges[0], room()) || total_paths > path_room) {
    return enumerate();
  }
  std::vector<Multiplicity> level;
  std::vector<Multiplicity> spare;
  level.reserve(seeds->size());
  for (const Edge& e : *seeds) level.push_back({open_end(e), 1});
  MergeByVertex(level, universe.num_vertices(), spare);
  total_steps = charges[0].steps;
  total_bytes = charges[0].bytes;

  std::vector<Multiplicity> next;
  for (size_t k = 1; k <= last_level && !level.empty(); ++k) {
    if (!ctx.CheckDeadline().ok()) return tripped();
    const EdgePattern& step = step_at(k);
    const bool final_level = k == last_level;
    const LevelCharge level_room = room();
    const uint64_t level_path_room = final_level ? path_room : kSaturated;
    LevelCharge charge;
    uint64_t matched = 0;  // Σ c(u)·m(u): the level's extensions.
    next.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      if (i % ExecContext::kPollStride == ExecContext::kPollStride - 1 &&
          !ctx.CheckDeadline().ok()) {
        return tripped();
      }
      PrefetchAhead<kEnd>(universe, level, i);
      const Multiplicity run = level[i];
      uint64_t m = 0;
      auto visit = [&](const Edge& e) {
        ++m;
        if (!final_level) next.push_back({open_end(e), run.paths});
      };
      if constexpr (kForward) {
        ForEachMatchingOutEdge(universe, run.vertex, step, visit);
      } else {
        ForEachMatchingInEdge(universe, run.vertex, step, visit);
      }
      charge.steps =
          SaturatingAdd(charge.steps, SaturatingMul(run.paths, SourceSteps(m)));
      charge.bytes =
          SaturatingAdd(charge.bytes, SaturatingMul(run.paths, SourceBytes(m)));
      matched = SaturatingAdd(matched, SaturatingMul(run.paths, m));
      if (passes(charge, level_room) || matched > level_path_room) {
        return enumerate();
      }
    }
    charges[k] = charge;
    if (final_level) total_paths = matched;
    total_steps = SaturatingAdd(total_steps, charge.steps);
    total_bytes = SaturatingAdd(total_bytes, charge.bytes);
    MergeByVertex(next, universe.num_vertices(), spare);
    level.swap(next);
  }

  // Within budget, but beyond what the counters can hold: only unlimited
  // dimensions get here (a saturated total exceeds every finite budget).
  auto overflows = [](uint64_t total, size_t used) {
    return total == kSaturated || total > kSaturated - used;
  };
  if (overflows(total_steps, before.steps_expanded) ||
      overflows(total_bytes, before.bytes_charged) ||
      overflows(total_paths, before.paths_yielded)) {
    out.count = total_paths;
    out.truncated = true;
    out.limit = Status::ResourceExhausted(
        "chain count exceeds the 64-bit execution counters");
    out.stats = ctx.Snapshot();
    out.stats.truncated = true;
    return finish();
  }

  // The whole chain fits: charge what enumeration would, level by level.
  // A level with no chains charges nothing, as in the enumerating fold.
  for (size_t k = 0; k <= last_level && charges[k].steps > 0; ++k) {
    if (!ctx.CheckStep(charges[k].steps).ok() ||
        !ctx.ChargeBytes(charges[k].bytes).ok() ||
        (k == last_level && !ctx.ChargePaths(total_paths).ok())) {
      return tripped();
    }
  }
  out.count = total_paths;
  out.stats = ctx.Snapshot();
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
    ExecContext& ctx) {
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
    for (const Path& p : acc) {
      size_t expanded = 0;
      ForEachMatchingOutEdge(universe, p.Head(), step, [&](const Edge& e) {
        if (!trip.ok()) return;
        if (final_level && !ctx.ChargePaths().ok()) {
          trip = ctx.limit_status();
          return;
        }
        ++expanded;
        Path extended = p;  // The O(level) prefix copy the arena eliminates.
        extended.Append(e);
        builder.Add(std::move(extended));
      });
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
                               const frontier::DensityPolicy& policy = {}) {
  ExecContext unlimited;
  GovernedPathSet result =
      Fold<ChainDirection::kForward>(universe, steps, policy, unlimited);
  if (result.truncated) return result.limit;
  return std::move(result.paths);
}

std::vector<EdgePattern> UniformSteps(size_t n, const EdgePattern& pattern) {
  return std::vector<EdgePattern>(n, pattern);
}

}  // namespace

Result<PathSet> CompleteTraversal(const EdgeUniverse& universe, size_t n) {
  return FoldJoinStrict(universe, UniformSteps(n, EdgePattern::Any()));
}

Result<PathSet> SourceTraversal(const EdgeUniverse& universe,
                                const std::vector<VertexId>& sources, size_t n,
                                bool complement) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.front() = EdgePattern::FromAnyOf(sources, complement);
  return FoldJoinStrict(universe, steps);
}

Result<PathSet> DestinationTraversal(const EdgeUniverse& universe,
                                     const std::vector<VertexId>& destinations,
                                     size_t n, bool complement) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.back() = EdgePattern::IntoAnyOf(destinations, complement);
  return FoldJoinStrict(universe, steps);
}

Result<PathSet> SourceDestinationTraversal(
    const EdgeUniverse& universe, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& destinations, size_t n) {
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
  return FoldJoinStrict(universe, steps);
}

Result<PathSet> LabeledTraversal(
    const EdgeUniverse& universe,
    const std::vector<std::vector<LabelId>>& step_labels) {
  std::vector<EdgePattern> steps;
  steps.reserve(step_labels.size());
  for (const std::vector<LabelId>& labels : step_labels) {
    steps.push_back(labels.empty() ? EdgePattern::Any()
                                   : EdgePattern::LabeledAnyOf(labels));
  }
  return FoldJoinStrict(universe, steps);
}

Result<PathSet> Traverse(const EdgeUniverse& universe,
                         const TraversalSpec& spec) {
  return FoldJoinStrict(universe, spec.steps, spec.density);
}

Result<GovernedPathSet> TraverseGoverned(const EdgeUniverse& universe,
                                         const TraversalSpec& spec,
                                         ExecContext& ctx) {
  return Fold<ChainDirection::kForward>(universe, spec.steps, spec.density,
                                        ctx);
}

Result<GovernedPathSet> EvaluateChainGoverned(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    ChainDirection direction, ExecContext& ctx,
    const frontier::DensityPolicy& density) {
  if (direction == ChainDirection::kForward) {
    return Fold<ChainDirection::kForward>(universe, steps, density, ctx);
  }
  return Fold<ChainDirection::kBackward>(universe, steps, density, ctx);
}

Result<GovernedCount> CountChainGoverned(const EdgeUniverse& universe,
                                         const std::vector<EdgePattern>& steps,
                                         ChainDirection direction,
                                         ExecContext& ctx) {
  if (direction == ChainDirection::kForward) {
    return CountFold<ChainDirection::kForward>(universe, steps, ctx);
  }
  return CountFold<ChainDirection::kBackward>(universe, steps, ctx);
}

Result<GovernedPathSet> TraverseGovernedMaterialized(
    const EdgeUniverse& universe, const TraversalSpec& spec,
    ExecContext& ctx) {
  return FoldJoinMaterialized(universe, spec.steps, ctx);
}

}  // namespace mrpa
