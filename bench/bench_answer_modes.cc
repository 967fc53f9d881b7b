// Experiment E25: count answers by enumerate-then-reduce vs the count fold.
//
// A `count` (or `exists`) answer is the size of a chain's path set. The
// enumerating route builds the set (EvaluateChainGoverned) and takes its
// size; CountChainGoverned folds (vertex, multiplicity) runs instead and
// charges the same ExecStats without building a path. Both run anchored
// chains of depth 2–6 — forward [v,_,_] ⋈ E ⋈ … ⋈ E and backward
// E ⋈ … ⋈ E ⋈ [_,_,w] — over two substrates:
//
//   * the E22 Erdős–Rényi graph (4k vertices, 3 labels, mean out-degree 8):
//     little path reuse, so the fold's level runs stay close to the path
//     counts until the last level;
//   * the E22 Barabási–Albert hub graph (20k vertices, 3 labels): forward
//     chains converge on hubs and backward chains fan out of them, so many
//     paths share an open end and a level run is much shorter than its
//     path count.
//
// Every iteration answers the same 8 anchors (fixed seed); both modes must
// agree on the total count, which the run checks.
//
// BM_BudgetedCountAnswer runs depth-4 forward chains on the ER graph under
// net_chaos_test's free-tier quota (max_paths 10, max_steps 60), which
// every such chain trips. The count fold then answers by enumerating, so
// its row shows what finding that out costs on top of enumeration: for an
// unanchored chain ([_,_,_] seeds all 32k edges), or for the 8 anchored
// ones.
//
// Run: build/bench/bench_answer_modes --benchmark_min_time=0.2 [--json=FILE]
// Results are recorded in EXPERIMENTS.md (E25). Trend-only: no baseline.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_pattern.h"
#include "core/traversal.h"
#include "graph/multi_graph.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace mrpa {
namespace {

constexpr size_t kAnchors = 8;

const MultiRelationalGraph& ErGraph() {
  static const MultiRelationalGraph* graph = new MultiRelationalGraph(
      bench::MakeErGraph(4'000, 3, 8.0, /*seed=*/42));
  return *graph;
}

const MultiRelationalGraph& BaGraph() {
  static const MultiRelationalGraph* graph =
      new MultiRelationalGraph(bench::MakeBaGraph(20'000, 3, 3, /*seed=*/42));
  return *graph;
}

// The anchored chains of one row: `depth` steps, the first pinned to a
// source (forward) or the last to a destination (backward). An anchor is
// the tail (head) of a uniformly drawn edge, so anchors follow out-degree
// (in-degree): on the BA graph backward chains mostly start at hubs.
std::vector<std::vector<EdgePattern>> Chains(const MultiRelationalGraph& g,
                                             size_t depth,
                                             ChainDirection direction) {
  const bool forward = direction == ChainDirection::kForward;
  Rng rng(0xe25);
  std::vector<std::vector<EdgePattern>> chains;
  while (chains.size() < kAnchors) {
    const Edge& e = g.AllEdges()[rng.Below(g.num_edges())];
    const VertexId v = forward ? e.tail : e.head;
    std::vector<EdgePattern> steps(depth, EdgePattern::Any());
    if (forward) {
      steps.front() = EdgePattern::From(v);
    } else {
      steps.back() = EdgePattern::Into(v);
    }
    chains.push_back(std::move(steps));
  }
  return chains;
}

// Args: depth, direction (0 forward, 1 backward), graph (0 ER, 1 BA),
// mode (0 enumerate-then-reduce, 1 count fold).
void BM_CountAnswer(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  const ChainDirection direction = state.range(1) == 0
                                       ? ChainDirection::kForward
                                       : ChainDirection::kBackward;
  const MultiRelationalGraph& g = state.range(2) == 0 ? ErGraph() : BaGraph();
  const bool fold = state.range(3) == 1;
  const std::vector<std::vector<EdgePattern>> chains =
      Chains(g, depth, direction);

  auto count_all = [&](bool use_fold) {
    uint64_t total = 0;
    for (const std::vector<EdgePattern>& steps : chains) {
      ExecContext ctx;
      ctx.AttachObs(bench::TraceRegistry());
      if (use_fold) {
        Result<GovernedCount> counted =
            CountChainGoverned(g, steps, direction, ctx);
        total += counted.ok() ? counted->count : 0;
      } else {
        Result<GovernedPathSet> paths =
            EvaluateChainGoverned(g, steps, direction, ctx);
        total += paths.ok() ? paths->paths.size() : 0;
      }
    }
    return total;
  };

  const uint64_t reference = count_all(/*use_fold=*/false);
  uint64_t total = 0;
  for (auto _ : state) {
    total = count_all(fold);
    benchmark::DoNotOptimize(total);
  }
  if (total != reference) {
    state.SkipWithError("the count fold disagrees with enumeration");
  }
  state.counters["paths"] = static_cast<double>(total);
  state.SetItemsProcessed(static_cast<int64_t>(kAnchors) *
                          state.iterations());
}
BENCHMARK(BM_CountAnswer)
    ->ArgsProduct({{2, 3, 4, 5, 6}, {0, 1}, {0, 1}, {0, 1}})
    ->ArgNames({"depth", "backward", "ba", "fold"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Args: anchored (0 unanchored, 1 the 8 anchors), mode (0 enumerate-then-
// reduce, 1 count fold).
void BM_BudgetedCountAnswer(benchmark::State& state) {
  const MultiRelationalGraph& g = ErGraph();
  const bool anchored = state.range(0) == 1;
  const bool fold = state.range(1) == 1;
  const std::vector<std::vector<EdgePattern>> chains =
      anchored ? Chains(g, 4, ChainDirection::kForward)
               : std::vector<std::vector<EdgePattern>>(
                     1, std::vector<EdgePattern>(4, EdgePattern::Any()));
  ExecLimits free_tier;
  free_tier.max_paths = 10;
  free_tier.max_steps = 60;

  auto count_all = [&](bool use_fold) {
    uint64_t total = 0;
    for (const std::vector<EdgePattern>& steps : chains) {
      ExecContext ctx(free_tier);
      if (use_fold) {
        Result<GovernedCount> counted =
            CountChainGoverned(g, steps, ChainDirection::kForward, ctx);
        total += counted.ok() ? counted->count : 0;
      } else {
        Result<GovernedPathSet> paths =
            EvaluateChainGoverned(g, steps, ChainDirection::kForward, ctx);
        total += paths.ok() ? paths->paths.size() : 0;
      }
    }
    return total;
  };

  const uint64_t reference = count_all(/*use_fold=*/false);
  uint64_t total = 0;
  for (auto _ : state) {
    total = count_all(fold);
    benchmark::DoNotOptimize(total);
  }
  if (total != reference) {
    state.SkipWithError("the count fold disagrees with enumeration");
  }
  state.counters["paths"] = static_cast<double>(total);
}
BENCHMARK(BM_BudgetedCountAnswer)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"anchored", "fold"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace mrpa

MRPA_BENCH_MAIN();
