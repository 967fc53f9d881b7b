#include "graph/projection.h"

#include <utility>

#include "core/traversal.h"
#include "frontier/bitmap.h"
#include "util/fault_injector.h"

namespace mrpa {

namespace {

// Reachability-only derivation of E_{α1...αk}: the projection discards
// everything about a path except its endpoints, so enumerating paths (the
// LabeledTraversal route, combinatorial in the worst case) is wasted work —
// per source vertex, one bitmap frontier stepped through the label sequence
// visits each (vertex, level) at most once and never touches a PathArena.
// Each step is itself adaptive: a narrow frontier walks per-vertex label
// sub-runs (sparse), a wide one sweeps the label's whole edge run testing
// tail bits (dense — the boolean matrix-row step of the linear-algebra
// view). Output is identical to the enumeration route because
// BinaryGraph::FromArcs dedups: both compute { (i, j) | some α-sequence
// path i → j }.
BinaryGraph DeriveByReachability(const MultiRelationalGraph& graph,
                                 const std::vector<LabelId>& labels) {
  const uint32_t n = graph.num_vertices();
  std::vector<std::pair<VertexId, VertexId>> arcs;
  frontier::BitmapFrontier cur(n);
  frontier::BitmapFrontier next(n);
  for (VertexId i = 0; i < n; ++i) {
    // Seed {i} and step through the sequence; bail as soon as the frontier
    // dies — most sources reach nothing for a selective sequence.
    cur.ClearAll();
    cur.Set(i);
    uint64_t count = 1;
    for (LabelId label : labels) {
      next.ClearAll();
      const std::span<const EdgeIndex> run = graph.LabelEdgeIndices(label);
      // Dense sweep when the frontier covers enough of V that per-vertex
      // sub-run lookups would touch most of the label run anyway; the sweep
      // reads the run once, sequentially, with one bit probe per edge.
      if (count >= n / 8 + 1) {
        for (EdgeIndex idx : run) {
          const Edge& e = graph.EdgeAt(idx);
          if (cur.Test(e.tail)) next.Set(e.head);
        }
      } else {
        cur.ForEachSet([&](VertexId v) {
          for (const Edge& e : graph.OutEdgesWithLabel(v, label)) {
            next.Set(e.head);
          }
        });
      }
      std::swap(cur, next);
      count = cur.Count();
      if (count == 0) break;
    }
    if (count == 0) continue;
    cur.ForEachSet([&](VertexId j) { arcs.emplace_back(i, j); });
  }
  return BinaryGraph::FromArcs(n, std::move(arcs));
}

}  // namespace

BinaryGraph FlattenIgnoringLabels(const MultiRelationalGraph& graph) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  arcs.reserve(graph.num_edges());
  for (const Edge& e : graph.AllEdges()) arcs.emplace_back(e.tail, e.head);
  return BinaryGraph::FromArcs(graph.num_vertices(), std::move(arcs));
}

BinaryGraph ExtractLabelRelation(const MultiRelationalGraph& graph,
                                 LabelId label) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (EdgeIndex idx : graph.LabelEdgeIndices(label)) {
    const Edge& e = graph.EdgeAt(idx);
    arcs.emplace_back(e.tail, e.head);
  }
  return BinaryGraph::FromArcs(graph.num_vertices(), std::move(arcs));
}

BinaryGraph ProjectPaths(const PathSet& paths, uint32_t num_vertices) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  arcs.reserve(paths.size());
  for (const Path& p : paths) {
    if (p.empty()) continue;
    arcs.emplace_back(p.Tail(), p.Head());
  }
  return BinaryGraph::FromArcs(num_vertices, std::move(arcs));
}

Result<BinaryGraph> DeriveLabelSequenceRelation(
    const MultiRelationalGraph& graph, const std::vector<LabelId>& labels) {
  // The reachability fast path never probes fault sites, so it only applies
  // when no injector is armed (the enumeration route probes per-extension
  // sites a deterministic number of times). Length-1 sequences stay on the
  // enumeration route too: E_α is one label-run copy there, while
  // per-source frontier resets alone would cost O(|V|²/64). E22 measures
  // the gap against the enumeration route below.
  if (labels.size() >= 2 && !FaultInjector::AnyArmed()) {
    return DeriveByReachability(graph, labels);
  }
  std::vector<std::vector<LabelId>> steps;
  steps.reserve(labels.size());
  for (LabelId l : labels) steps.push_back({l});
  Result<PathSet> paths = LabeledTraversal(graph, steps);
  if (!paths.ok()) return paths.status();
  return ProjectPaths(paths.value(), graph.num_vertices());
}

Result<BinaryGraph> DeriveRelation(const MultiRelationalGraph& graph,
                                   const PathExpr& expr,
                                   const EvalOptions& options) {
  Result<PathSet> paths = expr.Evaluate(graph, options);
  if (!paths.ok()) return paths.status();
  return ProjectPaths(paths.value(), graph.num_vertices());
}

}  // namespace mrpa
