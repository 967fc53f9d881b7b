// Experiment E22: the dense-frontier fast path vs the sparse per-path walk.
//
// Three questions, one per benchmark family:
//
//   * Crossover — where does the dense strategy (per-level allow-set built
//     once by the SIMD kernels, replayed per path) overtake the sparse
//     per-path pattern walk, as the frontier widens with depth? Forced
//     modes give the two pure curves; kAuto must track the winner on both
//     sides of the crossing.
//   * Projection — §IV-C derivation by bitmap reachability (never touches a
//     PathArena) vs the path-enumeration route it replaced.
//   * Kernel tiers — the same dense workload with dispatch pinned to the
//     scalar fallback, isolating the SIMD speedup from the strategy change.
//
// All three run on heavy-tailed substrates: hubs concentrate frontier heads
// onto few distinct vertices, which is exactly the reuse the per-vertex
// memoization exploits (and what the auto policy's reuse test detects).
//
// Run: build/bench/bench_frontier --benchmark_min_time=1s [--json=FILE]
// Results are recorded in EXPERIMENTS.md (E22). Acceptance: forced-dense
// ≥ 2x forced-sparse on the wide-frontier points, and kAuto within noise
// of forced-sparse on the narrow points (no regression where dense loses).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_pattern.h"
#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "frontier/bitmap.h"
#include "frontier/kernels.h"
#include "frontier/policy.h"
#include "graph/multi_graph.h"
#include "graph/projection.h"
#include "obs/obs.h"
#include "util/exec_context.h"

namespace mrpa {
namespace {

using frontier::DensityMode;
using frontier::DensityPolicy;
using frontier::SimdTier;

DensityPolicy PolicyForMode(int64_t mode) {
  DensityPolicy policy;
  switch (mode) {
    case 0: policy.mode = DensityMode::kForceSparse; break;
    case 1: policy.mode = DensityMode::kForceDense; break;
    default: policy.mode = DensityMode::kAuto; break;
  }
  return policy;
}

// Hub-heavy substrate: ≈ 60k edges, 3 labels. Preferential attachment
// keeps the head-reuse ratio high at every depth.
const MultiRelationalGraph& HubGraph() {
  static const MultiRelationalGraph* graph =
      new MultiRelationalGraph(bench::MakeBaGraph(20'000, 3, 3, /*seed=*/42));
  return *graph;
}

// Set-valued constraints on every step, sized like the §III vertex sets
// (Vd is a set of thousands of vertices, not a handful): a two-label Ωe
// set plus a |V|/4-id negated head set. The sparse walk pays a binary
// search over the id set PER CANDIDATE EDGE PER PATH; the dense mode
// lowers the whole constraint to a bitmap once per level and tests one
// bit per edge per DISTINCT head vertex. This is the workload class the
// fast path exists for.
TraversalSpec CrossoverSpec(const MultiRelationalGraph& graph, size_t depth) {
  const uint32_t n = graph.num_vertices();
  TraversalSpec spec;
  spec.steps.push_back(EdgePattern::Labeled(0));
  for (size_t k = 1; k < depth; ++k) {
    std::vector<uint32_t> blocked;
    for (uint32_t v = static_cast<uint32_t>(k % 4); v < n; v += 4) {
      blocked.push_back(v);
    }
    spec.steps.push_back(EdgePattern(
        IdConstraint(), IdConstraint({0, 1}),
        IdConstraint(std::move(blocked), /*negated=*/true)));
  }
  return spec;
}

// E22a: the crossover curve. depth sweeps the frontier from hundreds of
// paths (sparse territory) to hundreds of thousands (dense territory);
// mode ∈ {0: forced sparse, 1: forced dense, 2: auto}.
void BM_DenseCrossover(benchmark::State& state) {
  const MultiRelationalGraph& graph = HubGraph();
  TraversalSpec spec =
      CrossoverSpec(graph, static_cast<size_t>(state.range(0)));
  spec.density = PolicyForMode(state.range(1));
  uint64_t paths = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.AttachObs(bench::TraceRegistry());
    Result<GovernedPathSet> result = TraverseGoverned(graph, spec, ctx);
    paths = result.ok() ? result->paths.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  // One instrumented run outside the timed loop: which strategy did each
  // level actually pick (the kAuto rows' decision trace)?
  obs::ObsRegistry reg;
  ExecContext ctx;
  ctx.AttachObs(&reg);
  benchmark::DoNotOptimize(TraverseGoverned(graph, spec, ctx));
  state.counters["paths"] = static_cast<double>(paths);
  state.counters["dense_levels"] = static_cast<double>(
      reg.Value(obs::Metric::kFrontierDenseLevels));
  state.counters["sparse_levels"] = static_cast<double>(
      reg.Value(obs::Metric::kFrontierSparseLevels));
  state.SetItemsProcessed(static_cast<int64_t>(paths) * state.iterations());
}
BENCHMARK(BM_DenseCrossover)
    ->ArgsProduct({{2, 3, 4, 5}, {0, 1, 2}})
    ->ArgNames({"depth", "mode"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// E22a': the same sweep through the backward evaluator (suffix-chained
// arena, in-index dense replay).
void BM_BackwardCrossover(benchmark::State& state) {
  const MultiRelationalGraph& graph = HubGraph();
  const TraversalSpec spec =
      CrossoverSpec(graph, static_cast<size_t>(state.range(0)));
  const DensityPolicy policy = PolicyForMode(state.range(1));
  uint64_t paths = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.AttachObs(bench::TraceRegistry());
    Result<GovernedPathSet> result =
        EvaluateChainGoverned(graph, spec.steps, ChainDirection::kBackward,
                              ctx, policy);
    paths = result.ok() ? result->paths.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["paths"] = static_cast<double>(paths);
  state.SetItemsProcessed(static_cast<int64_t>(paths) * state.iterations());
}
BENCHMARK(BM_BackwardCrossover)
    ->ArgsProduct({{2, 3, 4}, {0, 1, 2}})
    ->ArgNames({"depth", "mode"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// E22b: §IV-C projection throughput. The reachability fast path visits each
// (vertex, level) once per source; the enumeration route walks every joint
// path. `length` is the label-sequence length.
const MultiRelationalGraph& ProjectionGraph() {
  static const MultiRelationalGraph* graph = new MultiRelationalGraph(
      bench::MakeErGraph(4'000, 3, 8.0, /*seed=*/42));
  return *graph;
}

std::vector<LabelId> ProjectionLabels(size_t length) {
  std::vector<LabelId> labels;
  for (size_t i = 0; i < length; ++i) {
    labels.push_back(static_cast<LabelId>(i % 2));
  }
  return labels;
}

void BM_ProjectionReachability(benchmark::State& state) {
  const MultiRelationalGraph& graph = ProjectionGraph();
  const std::vector<LabelId> labels =
      ProjectionLabels(static_cast<size_t>(state.range(0)));
  uint64_t arcs = 0;
  for (auto _ : state) {
    Result<BinaryGraph> rel = DeriveLabelSequenceRelation(graph, labels);
    arcs = rel.ok() ? rel->num_arcs() : 0;
    benchmark::DoNotOptimize(rel);
  }
  state.counters["arcs"] = static_cast<double>(arcs);
  state.SetItemsProcessed(static_cast<int64_t>(arcs) * state.iterations());
}
BENCHMARK(BM_ProjectionReachability)
    ->Arg(2)->Arg(3)->Arg(4)
    ->ArgNames({"length"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ProjectionEnumeration(benchmark::State& state) {
  const MultiRelationalGraph& graph = ProjectionGraph();
  const std::vector<LabelId> labels =
      ProjectionLabels(static_cast<size_t>(state.range(0)));
  std::vector<std::vector<LabelId>> steps;
  for (LabelId l : labels) steps.push_back({l});
  uint64_t arcs = 0;
  for (auto _ : state) {
    Result<PathSet> paths = LabeledTraversal(graph, steps);
    BinaryGraph rel = ProjectPaths(paths.value(), graph.num_vertices());
    arcs = rel.num_arcs();
    benchmark::DoNotOptimize(rel);
  }
  state.counters["arcs"] = static_cast<double>(arcs);
  state.SetItemsProcessed(static_cast<int64_t>(arcs) * state.iterations());
}
BENCHMARK(BM_ProjectionEnumeration)
    ->Arg(2)->Arg(3)->Arg(4)
    ->ArgNames({"length"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// E22c: the kernel-tier ratio. The forced-dense crossover workload with
// dispatch pinned to the scalar fallback vs the CPU's best tier — the SIMD
// contribution isolated from the strategy change. tier ∈ {0: native,
// 1: forced scalar}.
void BM_KernelTier(benchmark::State& state) {
  const MultiRelationalGraph& graph = HubGraph();
  TraversalSpec spec = CrossoverSpec(graph, 4);
  spec.density = PolicyForMode(1);  // Forced dense: kernels on every level.
  if (state.range(0) == 1) {
    frontier::ForceTierForTesting(SimdTier::kScalar);
  }
  uint64_t paths = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Result<GovernedPathSet> result = TraverseGoverned(graph, spec, ctx);
    paths = result.ok() ? result->paths.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  frontier::ForceTierForTesting(std::nullopt);
  state.counters["paths"] = static_cast<double>(paths);
  state.SetItemsProcessed(static_cast<int64_t>(paths) * state.iterations());
}
BENCHMARK(BM_KernelTier)
    ->Arg(0)->Arg(1)
    ->ArgNames({"forced_scalar"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// E22c': the kernels in isolation, where run length is not bounded by the
// graph's out-degree. End-to-end the tiers tie (mean out-run ≈ 3 edges, so
// per-call setup cancels the vector win); this is the per-kernel ratio on
// the long runs the backward cache ctor and the projection sweep actually
// feed them. kernel ∈ {0: filter_edges over the full 60k-edge run,
// 1: bitmap AND+popcount over 1M-bit frontiers}.
void BM_KernelMicro(benchmark::State& state) {
  const MultiRelationalGraph& graph = HubGraph();
  if (state.range(1) == 1) {
    frontier::ForceTierForTesting(SimdTier::kScalar);
  }
  const frontier::Kernels& k = frontier::Active();
  uint64_t processed = 0;
  if (state.range(0) == 0) {
    const std::span<const Edge> all = graph.AllEdges();
    frontier::BitmapFrontier label_bits(graph.num_labels());
    label_bits.Set(0);
    label_bits.Set(1);
    frontier::BitmapFrontier head_bits(graph.num_vertices());
    head_bits.SetAll();
    for (uint32_t v = 1; v < graph.num_vertices(); v += 4) head_bits.Clear(v);
    std::vector<uint32_t> out(all.size());
    for (auto _ : state) {
      const size_t matched =
          k.filter_edges(all.data(), all.size(), nullptr, label_bits.words(),
                         head_bits.words(), out.data());
      benchmark::DoNotOptimize(matched);
      processed += all.size();
    }
  } else {
    constexpr uint32_t kBits = 1u << 20;
    frontier::BitmapFrontier a(kBits);
    frontier::BitmapFrontier b(kBits);
    for (uint32_t i = 0; i < kBits; i += 3) a.Set(i);
    for (uint32_t i = 0; i < kBits; i += 5) b.Set(i);
    for (auto _ : state) {
      k.bitmap_and(a.words(), b.words(), a.num_words());
      const uint64_t count = k.bitmap_popcount(a.words(), a.num_words());
      benchmark::DoNotOptimize(count);
      processed += kBits;
    }
  }
  frontier::ForceTierForTesting(std::nullopt);
  state.SetItemsProcessed(static_cast<int64_t>(processed));
}
BENCHMARK(BM_KernelMicro)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"kernel", "forced_scalar"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace mrpa

MRPA_BENCH_MAIN();
