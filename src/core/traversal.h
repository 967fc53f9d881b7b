// The basic traversal idioms of §III, expressed directly over the algebra.
//
//   Complete traversal     E ⋈◦ ... ⋈◦ E (n times)          — §III-A
//   Source traversal       A ⋈◦ E ... ⋈◦ E, A = {e | γ−(e) ∈ Vs}  — §III-B
//   Destination traversal  E ⋈◦ ... E ⋈◦ B, B = {e | γ+(e) ∈ Vd}  — §III-C
//   Labeled traversal      A ⋈◦ B, A/B restricted by Ωe/Ωf        — §III-D
//
// Each function materializes the denoted path set. The TraversalSpec form
// composes all the restrictions (a per-step label set plus source and
// destination vertex sets) into one n-step traversal, which is how the
// combined idioms at the end of §III-C are expressed.

#ifndef MRPA_CORE_TRAVERSAL_H_
#define MRPA_CORE_TRAVERSAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/edge_pattern.h"
#include "core/edge_universe.h"
#include "core/path_set.h"
#include "frontier/policy.h"
#include "util/status.h"

namespace mrpa {

// All joint paths of length exactly `n` (§III-A). n = 0 yields {ε}.
Result<PathSet> CompleteTraversal(const EdgeUniverse& universe, size_t n);

// All joint paths of length `n` whose tail vertex lies in `sources`
// (§III-B). Pass `complement = true` for the Vs-bar form ("start anywhere
// except Vs").
Result<PathSet> SourceTraversal(const EdgeUniverse& universe,
                                const std::vector<VertexId>& sources, size_t n,
                                bool complement = false);

// All joint paths of length `n` whose head vertex lies in `destinations`
// (§III-C).
Result<PathSet> DestinationTraversal(const EdgeUniverse& universe,
                                     const std::vector<VertexId>& destinations,
                                     size_t n, bool complement = false);

// Source and destination combined: emanate from Vs, arrive in Vd, length n.
Result<PathSet> SourceDestinationTraversal(
    const EdgeUniverse& universe, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& destinations, size_t n);

// Labeled traversal (§III-D): one label set per step; step k of the result
// paths carries a label in `step_labels[k]`. An empty inner vector means Ω
// (unrestricted) for that step.
Result<PathSet> LabeledTraversal(
    const EdgeUniverse& universe,
    const std::vector<std::vector<LabelId>>& step_labels);

// The fully general n-step traversal: an arbitrary EdgePattern per step,
// joined left-to-right. This subsumes all of the above (each idiom is a
// particular pattern sequence) and is what the fluent engine lowers to.
struct TraversalSpec {
  std::vector<EdgePattern> steps;
  // The sparse/dense execution switch (DESIGN.md "Dense-frontier
  // execution"). Pure strategy: any mode produces byte-identical governed
  // output; kAuto decides per level from frontier shape, refined by the
  // attached ObsRegistry's level-width history when one is present. The
  // forced modes exist for the differential suites and the E22 baselines.
  frontier::DensityPolicy density;
};

Result<PathSet> Traverse(const EdgeUniverse& universe,
                         const TraversalSpec& spec);

// Governed evaluation: the same fold, threaded through `ctx`. When a budget,
// deadline, or cancellation trips, the result is returned OK with
// `truncated = true`, the tripping Status in `limit`, and whatever
// full-length paths were already yielded in `paths` (paths yielded under a
// budget of k are exactly the k first paths in the set's canonical order).
// A trip at an intermediate join level yields an empty (but still truncated)
// set — only full-length paths are ever reported.
Result<GovernedPathSet> TraverseGoverned(const EdgeUniverse& universe,
                                         const TraversalSpec& spec,
                                         ExecContext& ctx);

// The end of the chain a fold extends. ⋈◦ is associative, so both denote
// the same path set; folding backward over E is folding forward over E's
// converse, and both run the one fold kernel (core/fold_kernel.h) under one
// guard-accounting rule.
enum class ChainDirection {
  kForward,   // Seed with steps.front(), extend at the head (the §III fold).
  kBackward,  // Seed with steps.back(), extend at the tail via the in-index.
};

// The governed fold from either end (the truncation contract of
// TraverseGoverned, which is exactly the kForward case). A backward run
// yields the same paths in the same canonical order; under a budget it
// keeps whatever full-length paths its own emission order reached, so a
// truncated backward result is a subset of the full set, not a prefix.
// `density` is the sparse/dense execution switch (pure strategy). The
// chain planner (engine/chain_planner.h) picks the direction.
Result<GovernedPathSet> EvaluateChainGoverned(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    ChainDirection direction, ExecContext& ctx,
    const frontier::DensityPolicy& density = {});

// A governed count: how many paths a chain denotes, under the truncation
// contract of GovernedPathSet. A truncated count is a lower bound.
struct GovernedCount {
  uint64_t count = 0;
  // True iff a limit stopped evaluation early.
  bool truncated = false;
  // OK when complete; the tripping Status when truncated.
  Status limit;
  ExecStats stats;
};

// The size of EvaluateChainGoverned's answer, computed without enumerating
// it (DESIGN.md "One fold, both ends"). A fold carries sorted (vertex,
// multiplicity) runs from level to level — the chain's counting-semiring
// fold from its seed end — and derives from them, in saturating
// arithmetic, the charges enumeration would make under the one accounting
// rule. The answer is defined as enumerate-then-reduce:
//
//   * When every total fits ctx's remaining countable budgets, it charges
//     them level by level (CheckStep, ChargeBytes, and ChargePaths on the
//     final level) and returns the count.
//   * When a countable budget would trip, it charges nothing and returns the
//     size of EvaluateChainGoverned's (truncated) answer on the untouched
//     context. It gives up as soon as a running total passes its budget:
//     right after collecting the seeds, and after each vertex it walks.
//
// So count, truncation, limit Status and ExecStats (elapsed time aside)
// equal enumeration's under every countable budget. Deadline and
// cancellation are polled at every level and every 64 frontier vertices; a
// poll trip, or an injected fault while charging, yields a truncated count
// of 0. A total beyond the counters' range under unlimited budgets yields
// the saturated count, truncated with kResourceExhausted, and charges
// nothing: a count never wraps.
Result<GovernedCount> CountChainGoverned(const EdgeUniverse& universe,
                                         const std::vector<EdgePattern>& steps,
                                         ChainDirection direction,
                                         ExecContext& ctx);

// The pre-arena fold: every extension copies its full prefix into a fresh
// Path, every level is canonicalized through PathSetBuilder. Same contract,
// same guard-call sequence, same PathArena::kNodeBytes byte unit as
// TraverseGoverned — output is byte-identical under every governed regime.
// Retained as the differential oracle for the arena engine and as the E17
// benchmark baseline; not for production use.
Result<GovernedPathSet> TraverseGovernedMaterialized(
    const EdgeUniverse& universe, const TraversalSpec& spec, ExecContext& ctx);

class ThreadPool;

// Tuning knobs for the parallel fold. The defaults favor load balance: a
// few shards per worker so the work-stealing pool can even out skewed
// degree distributions (one hub vertex should not serialize a level).
struct ParallelTraversalOptions {
  // The pool to run on; nullptr falls back to the sequential fold.
  ThreadPool* pool = nullptr;
  // Seed shards per pool thread. More shards → better balance, more
  // per-shard fixed cost.
  size_t shards_per_thread = 4;
  // Never cut shards smaller than this many seed paths; tiny inputs run on
  // fewer shards (possibly one, i.e. effectively sequentially).
  size_t min_shard_size = 16;
};

// The parallel §III fold. Seeds on the calling thread, shards the seed
// paths into contiguous canonical-order slices, expands every shard
// speculatively on the pool (quiet per-shard ExecContexts: shared cancel
// token and absolute deadline, fault probes disabled), then replays the
// shards' recorded accounting against `ctx` in exact sequential order.
// Output — paths, canonical order, truncation flag, limit status, and
// counters (elapsed time aside) — is byte-identical to TraverseGoverned for
// step/path/byte budgets and injected faults; deadline and cancellation
// trips depend on wall clock and may truncate at a different (still
// canonical-prefix) point. See "Parallel traversal" in DESIGN.md.
Result<GovernedPathSet> TraverseParallelGoverned(
    const EdgeUniverse& universe, const TraversalSpec& spec, ExecContext& ctx,
    const ParallelTraversalOptions& options);

// Ungoverned parallel form: same contract as Traverse().
Result<PathSet> TraverseParallel(const EdgeUniverse& universe,
                                 const TraversalSpec& spec,
                                 const ParallelTraversalOptions& options);

}  // namespace mrpa

#endif  // MRPA_CORE_TRAVERSAL_H_
