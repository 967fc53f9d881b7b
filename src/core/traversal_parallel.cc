// The parallel §III fold: shard-speculate, then replay accounting.
//
// The algebra makes path enumeration embarrassingly parallel — the fold
// distributes over union of seed-path slices — but PR 1's governance
// contract is inherently sequential: "a path budget of k yields the first k
// paths in canonical order", counters are exact, and the deterministic
// FaultInjector trips on the nth probe. Naively splitting an ExecContext
// across threads breaks all three (shards race for budget, probe order
// scrambles). This file keeps byte-identical semantics with a two-phase
// scheme:
//
//   1. SPECULATE. The seed level runs on the calling thread against the
//      real context (exactly the sequential charge sequence). The seed
//      edges — already in canonical order — are cut into contiguous
//      shards, and each shard folds through the remaining levels on the
//      pool under a *quiet* ExecContext (ExecContext::ShardContext: shared
//      cancel token, shared absolute deadline, fault probes off) whose
//      countable budgets — the parent's full remaining budget — bound
//      speculation. Each level runs the fold kernel (core/fold_kernel.h)
//      that the sequential fold runs, and the shard records its ledger:
//      per level, per source path, the kernel's SourceRecord (how many
//      extensions it emitted and how the out-run ended).
//
//      Each shard folds through its own prefix-sharing PathArena
//      (core/path_arena.h): extensions are 16-byte node pushes, never
//      prefix copies, and the arena is strictly shard-local — the
//      single-writer contract the arena's threading section requires.
//      Only node ids cross the phase boundary; paths materialize once,
//      at the merge.
//
//   2. REPLAY. The calling thread replays the ledgers against the real
//      context in exactly the sequential fold's order — level-major, then
//      shard-major (which is canonical source-path order, because shards
//      are contiguous canonical slices and same-length extensions preserve
//      prefix order). Each record replays the same guard calls with the
//      same arguments the sequential fold would make (ChargePaths per
//      final-level emission, batched CheckStep/ChargeBytes per source
//      path), so the trip point, sticky limit status, counters, and
//      fault-probe sequence are identical. The merged output is the
//      concatenation of shard results cut at the replayed emission count —
//      canonical order by construction, adopted O(1) via
//      PathSet::FromSortedUnique.
//
// Coverage argument: a shard's local charge for any prefix of its work
// equals the real context's charge for that prefix MINUS earlier shards'
// contributions, so the shard trips at-or-after the point the sequential
// fold would — replay always runs out of real budget before it runs out of
// ledger. The exception is wall clock (deadline/cancel trip whenever the
// clock says so; the replayed prefix is still a correct canonical prefix
// with accurate metadata).
//
// Thread-safety note: shards read the EdgeUniverse concurrently, so its
// const accessors must be thread-safe. The immutable CSR snapshot
// (MultiRelationalGraph) qualifies; DynamicMultiGraph's lazily rebuilt
// indices do not — Freeze() first.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/fold_kernel.h"
#include "core/path_arena.h"
#include "core/traversal.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace mrpa {

namespace {

struct ShardLedger {
  // levels[k-1] holds one record per level-k source path, in canonical
  // order. A tripped shard stops recording, so its last record (trip kind)
  // is the last entry of its last level; untripped shards record every
  // level (possibly empty once their frontier dies out).
  std::vector<std::vector<SourceRecord>> levels;
  // The shard's private prefix store. Written only by the shard's worker
  // during speculation, read only by the merge after the pool joins — no
  // two threads ever touch it concurrently.
  PathArena arena;
  // Final-level node ids into `arena`, canonical order by construction.
  std::vector<PathNodeId> final_ids;
  // The quiet context's trip status when the shard stopped early; OK for a
  // completed shard. Only surfaced on under-coverage (wall clock), where
  // replay cannot reproduce the trip from the real context.
  Status local_status;
};

// The shard fold: the sequential fold's level loop over one seed slice,
// driving the same fold kernel — arena-native, one node push per extension
// — against a quiet speculation-bounding context, and recording the
// kernel's SourceRecords in the ledger instead of being the source of
// truth.
// Observability from inside the worker is deliberately thin: the quiet
// context carries NO registry (equality-relevant counters all come from the
// replay on the calling thread, so sequential and parallel runs agree
// number-for-number), and the shard reports only its own span plus its
// speculative allocation total — per-shard, concurrently, which is exactly
// the contention the registry's padded slabs exist for (and what the TSAN
// `obs` suite exercises at pool width 8).
// The kernel picks each level's sparse/dense strategy over THIS shard's
// frontier slice — skew-friendly: a hub-heavy shard can go dense while its
// siblings stay sparse — and since the dense memo yields the identical
// matched-edge sequence, a dense shard and a sparse shard produce the same
// ledger. Per-shard frontier.* counters go to the shard's registry slot;
// they are strategy telemetry, excluded (like parallel.*) from the
// sequential counter-identity set.
void ExpandShard(const EdgeUniverse& universe,
                 const std::vector<EdgePattern>& steps,
                 std::span<const Edge> seeds,
                 const frontier::DensityPolicy& policy, ExecContext&& quiet,
                 ShardLedger& ledger, obs::ObsRegistry* reg,
                 obs::SpanId parent_span, size_t shard_index) {
  obs::TraceSpan shard_span(reg, "traverse.shard", parent_span, /*level=*/-1,
                            static_cast<int64_t>(shard_index));
  const size_t last_level = steps.size() - 1;
  PathArena& arena = ledger.arena;
  FoldKernel<ChainDirection::kForward> kernel(universe, arena, quiet, policy);
  std::vector<PathNodeId> frontier;
  frontier.reserve(seeds.size());
  for (const Edge& e : seeds) frontier.push_back(arena.AddRoot(e));
  ledger.levels.reserve(last_level);

  for (size_t k = 1; k <= last_level; ++k) {
    const bool final_level = k == last_level;
    std::vector<SourceRecord>& records = ledger.levels.emplace_back();
    records.reserve(frontier.size());
    std::vector<PathNodeId> next;
    bool stopped = false;
    kernel.BeginLevel(steps[k], final_level, frontier);
    for (PathNodeId source : frontier) {
      records.push_back(kernel.Expand(source, next));
      if (records.back().end != RunEnd::kComplete) {
        ledger.local_status = quiet.limit_status();
        stopped = true;
        break;
      }
    }
    if (final_level) {
      // Kept even when the shard stopped mid-level: the emissions made
      // before the trip are a valid canonical prefix of the shard's
      // output, and the replay merge cuts the concatenation at the
      // replayed emission count.
      ledger.final_ids = std::move(next);
    } else if (!stopped) {
      frontier = std::move(next);
    }
    if (stopped) break;
  }
  if (reg != nullptr) {
    reg->Add(obs::Metric::kParallelSpeculativeNodes,
             ledger.arena.telemetry().nodes_allocated, shard_index);
    kernel.FlushTelemetry(reg, shard_index);
  }
}

}  // namespace

Result<GovernedPathSet> TraverseParallelGoverned(
    const EdgeUniverse& universe, const TraversalSpec& spec, ExecContext& ctx,
    const ParallelTraversalOptions& options) {
  const std::vector<EdgePattern>& steps = spec.steps;
  // Parallelism needs a pool and at least one expansion level beyond the
  // seed; otherwise the sequential fold IS the semantics.
  if (options.pool == nullptr || steps.size() < 2) {
    return TraverseGoverned(universe, spec, ctx);
  }

  GovernedPathSet out;
  const size_t last_level = steps.size() - 1;
  const size_t path_length = steps.size();

  // Boundary-only observability, mirroring the sequential fold: snapshot on
  // entry, flush on graceful exit. Every equality-relevant counter is
  // computed from the REPLAY (the phase that already reproduces sequential
  // accounting bit-for-bit), never from shard workers, so an instrumented
  // parallel run reports the same traversal.*/arena.*/exec.* numbers as the
  // sequential fold — the identity tests/obs_invariants_test.cc locks down.
  obs::ObsRegistry* const reg = ctx.observer();
  ExecStats obs_before;
  if (reg != nullptr) obs_before = ctx.Snapshot();
  ExecSpan run_span(ctx, "traverse.parallel");

  // Seed level, on the calling thread against the real context —
  // charge-for-charge the sequential seed loop (last_level > 0 here, so no
  // ChargePaths). Seeds stay plain edges; each shard lifts its slice into
  // its own arena as roots.
  std::vector<Edge> seed = CollectMatchingEdges(universe, steps.front());
  Status trip;
  size_t seeded = 0;
  {
    ExecSpan seed_span(ctx, "traverse.level", /*level=*/0);
    seeded = AdmitSeeds(seed.size(), /*final_level=*/false, ctx);
    if (seeded < seed.size()) trip = ctx.limit_status();
  }
  seed.resize(seeded);
  // Flush for the two exits that never build ledgers. Matches what the
  // sequential fold reports for the same run: `seeded` is both the seed
  // count and the node count (one root per surviving seed) as well as the
  // arena's peak.
  auto flush_obs_seed_only = [&]() {
    if (reg == nullptr) return;
    reg->Add(obs::Metric::kTraversalRuns, 1);
    reg->Add(obs::Metric::kTraversalSeedEdges, seeded);
    reg->Add(obs::Metric::kArenaNodesAllocated, seeded);
    reg->Record(obs::Hist::kArenaPeakNodes, seeded);
    AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
  };
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    flush_obs_seed_only();
    out.stats = ctx.Snapshot();
    return out;
  }
  if (seed.empty()) {
    flush_obs_seed_only();
    out.stats = ctx.Snapshot();
    return out;
  }

  // Cut the seed into contiguous canonical slices.
  const size_t min_shard = options.min_shard_size > 0 ? options.min_shard_size : 1;
  size_t num_shards = options.pool->num_threads() *
                      (options.shards_per_thread > 0 ? options.shards_per_thread : 1);
  num_shards = std::min(num_shards, (seed.size() + min_shard - 1) / min_shard);
  if (num_shards == 0) num_shards = 1;

  std::vector<ShardLedger> ledgers(num_shards);
  std::vector<std::span<const Edge>> slices(num_shards);
  {
    const size_t base = seed.size() / num_shards;
    const size_t extra = seed.size() % num_shards;
    size_t begin = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t len = base + (s < extra ? 1 : 0);
      slices[s] = std::span<const Edge>(seed).subspan(begin, len);
      begin += len;
    }
  }
  // Every shard speculates under the parent's FULL remaining budget: a
  // shard can then only trip at-or-after the point the sequential fold
  // would, so the sequential-order replay always trips first.
  const ExecLimits speculation_limits = ctx.RemainingLimits();

  // One calibrated policy, shared read-only by every shard (calibration
  // snapshots the registry once, on the calling thread).
  frontier::DensityPolicy policy = spec.density;
  if (reg != nullptr && policy.mode == frontier::DensityMode::kAuto) {
    policy = frontier::CalibrateDensityPolicy(
        policy, reg, universe.num_vertices(), universe.num_edges());
  }

  options.pool->ParallelFor(num_shards, [&](size_t s) {
    ExpandShard(universe, steps, slices[s], policy,
                ExecContext::ShardContext(ctx, speculation_limits), ledgers[s],
                reg, run_span.id(), s);
  });

  // Replay: the sequential fold's exact guard-call sequence, fed from the
  // ledgers in level-major, shard-major order.
  size_t emitted = 0;  // Final-level emissions replayed so far.
  size_t levels_run = 0;
  // Nodes the SEQUENTIAL arena would have allocated for the replayed
  // prefix: one root per seed, one per non-final extension replayed, one
  // per final-level extension whose ChargePaths succeeded. This — not the
  // shard arenas' speculative total — is what arena.nodes_allocated must
  // report for the sequential counter identity (and for the
  // bytes == nodes × kNodeBytes conservation law on untruncated runs).
  size_t replayed_nodes = seeded;

  // Materializes the first `count` final-level chains across the shard
  // arenas (shard-major = canonical order) — the one place paths exist as
  // contiguous edge vectors.
  auto merge_first = [&](size_t count) {
    std::vector<Path> merged;
    merged.reserve(count);
    for (size_t s = 0; s < ledgers.size(); ++s) {
      ShardLedger& ledger = ledgers[s];
      size_t taken = 0;
      for (PathNodeId id : ledger.final_ids) {
        if (merged.size() == count) break;
        Path p;
        ledger.arena.MaterializePrefixInto(id, path_length, p);
        merged.push_back(std::move(p));
        ++taken;
      }
      // Per-shard slot attribution: the conservation test asserts
      // Value(paths_emitted) == Σ slots == |result|.
      if (reg != nullptr && taken > 0) {
        reg->Add(obs::Metric::kTraversalPathsEmitted, taken, s);
      }
      if (merged.size() == count) break;
    }
    return PathSet::FromSortedUnique(std::move(merged));
  };

  // The one-per-run flush for every exit past the shard phase.
  // paths_emitted is added by merge_first, per shard.
  auto flush_obs = [&]() {
    if (reg == nullptr) return;
    reg->Add(obs::Metric::kTraversalRuns, 1);
    reg->Add(obs::Metric::kTraversalSeedEdges, seeded);
    reg->Add(obs::Metric::kTraversalLevels, levels_run);
    reg->Add(obs::Metric::kParallelShards, num_shards);
    reg->Add(obs::Metric::kArenaNodesAllocated, replayed_nodes);
    uint64_t materializations = 0;
    uint64_t truncated_nodes = 0;
    for (size_t s = 0; s < ledgers.size(); ++s) {
      const PathArena::Telemetry& t = ledgers[s].arena.telemetry();
      materializations += t.materializations;
      truncated_nodes += t.truncated_nodes;
      reg->Record(obs::Hist::kArenaPeakNodes, t.peak_nodes, s);
    }
    reg->Add(obs::Metric::kArenaMaterializations, materializations);
    reg->Add(obs::Metric::kArenaTruncatedNodes, truncated_nodes);
    AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
  };

  // Assembles the governed result for a replay stop. `level` is the level
  // being replayed when the stop happened; the sequential fold keeps the
  // current level's partial output only when that level is final.
  auto truncated = [&](size_t level, Status limit) {
    out.truncated = true;
    out.limit = std::move(limit);
    if (level == last_level) out.paths = merge_first(emitted);
    flush_obs();
    out.stats = ctx.Snapshot();
    out.stats.truncated = true;  // Also set on under-coverage stops, where
                                 // the real context never tripped.
    return out;
  };

  for (size_t k = 1; k <= last_level; ++k) {
    const bool final_level = k == last_level;
    if (reg != nullptr) {
      // Level accounting, sequential-equivalent: ledger records at index
      // k-1 are level-k source paths, so their total is the level's input
      // frontier width; the sequential loop runs (and counts) a level iff
      // that width is non-zero. (The bounds guard covers shards that
      // tripped before this level — replay would already have returned on
      // their trip record, but stay defensive.)
      size_t level_width = 0;
      for (const ShardLedger& ledger : ledgers) {
        if (k - 1 < ledger.levels.size()) {
          level_width += ledger.levels[k - 1].size();
        }
      }
      if (level_width > 0) {
        ++levels_run;
        reg->Record(obs::Hist::kTraversalLevelWidth, level_width);
      }
    }
    ExecSpan level_span(ctx, "traverse.level", static_cast<int64_t>(k));
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardLedger& ledger = ledgers[s];
      // A shard missing this level tripped earlier — but then replay of its
      // trip record already returned. (Untripped shards record all levels.)
      assert(k - 1 < ledger.levels.size());
      for (const SourceRecord& r : ledger.levels[k - 1]) {
        // Non-final extensions were pushed unconditionally by the
        // sequential fold (its per-emission guards are final-level only),
        // so the replayed node count charges them up front — even when the
        // batched CheckStep/ChargeBytes below trips afterwards, the
        // sequential arena had already pushed these nodes.
        if (!final_level) {
          replayed_nodes += r.matches;
        } else {
          for (uint32_t j = 0; j < r.matches; ++j) {
            if (!ctx.ChargePaths().ok()) {
              return truncated(k, ctx.limit_status());
            }
            ++emitted;
            ++replayed_nodes;  // Sequentially pushed only after the charge.
          }
        }
        switch (r.end) {
          case RunEnd::kComplete:
            if (!ctx.CheckStep(SourceSteps(r.matches)).ok() ||
                !ctx.ChargeBytes(SourceBytes(r.matches)).ok()) {
              return truncated(k, ctx.limit_status());
            }
            break;
          case RunEnd::kTripPaths: {
            // The shard saw one more matching edge; sequentially it would
            // face ChargePaths. Probe the remaining budget instead of
            // charging blindly: if the real budget is dry, charging
            // reproduces the sequential trip; if not, this is
            // under-coverage — stop with the shard's own status, without
            // minting a phantom path charge.
            std::optional<size_t> left = ctx.RemainingLimits().max_paths;
            if (left.has_value() && *left == 0) {
              ctx.ChargePaths();  // Trips; records the sticky status.
              return truncated(k, ctx.limit_status());
            }
            return truncated(k, ledger.local_status);
          }
          case RunEnd::kTripPost:
            // Replay the batched charges; the counters advance either way
            // (CheckStep/ChargeBytes keep their increments on trip, exactly
            // like the sequential fold's accounting).
            if (!ctx.CheckStep(SourceSteps(r.matches)).ok() ||
                !ctx.ChargeBytes(SourceBytes(r.matches)).ok()) {
              return truncated(k, ctx.limit_status());
            }
            return truncated(k, ledger.local_status);  // Under-coverage.
        }
      }
    }
  }

  // No trip anywhere: merge every shard's speculative output wholesale.
  size_t total = 0;
  for (const ShardLedger& ledger : ledgers) total += ledger.final_ids.size();
  out.paths = merge_first(total);
  flush_obs();
  out.stats = ctx.Snapshot();
  return out;
}

Result<PathSet> TraverseParallel(const EdgeUniverse& universe,
                                 const TraversalSpec& spec,
                                 const ParallelTraversalOptions& options) {
  ExecContext unlimited;
  Result<GovernedPathSet> result =
      TraverseParallelGoverned(universe, spec, unlimited, options);
  if (!result.ok()) return result.status();
  if (result->truncated) return result->limit;
  return std::move(result->paths);
}

}  // namespace mrpa

