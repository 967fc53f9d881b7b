// GraphTraversal: a fluent, Gremlin-style stepwise API over the path
// algebra — the "multi-relational graph traversal engine" the paper's
// abstract and conclusion call for.
//
// Every traverser carries its full Path history plus a cursor vertex.
// Forward steps (Out*) extend the path at its head via ⋈◦-style adjacency;
// backward steps (In*) append the matched edge as-is and move the cursor to
// the edge's tail — the history then contains a non-joint seam, which is
// precisely the disjoint-path territory the algebra covers with ×◦
// (Definition 3 makes jointness a predicate, not an invariant, for exactly
// this reason).
//
//   GraphTraversal(g)
//       .V({marko})
//       .Out(knows)
//       .Out(created)
//       .Dedup()
//       .Execute();
//
// Terminal operations: Execute() (paths + cursors), ToPathSet(), Cursors(),
// Count(). Builders are value types; each step returns *this.

#ifndef MRPA_ENGINE_TRAVERSAL_BUILDER_H_
#define MRPA_ENGINE_TRAVERSAL_BUILDER_H_

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/edge_pattern.h"
#include "core/expr.h"
#include "core/path_set.h"
#include "graph/multi_graph.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {

struct Traverser {
  Path history;      // Every edge walked, in order, forward or backward.
  VertexId cursor;   // Where the traverser currently stands.
};

struct TraversalResult {
  std::vector<Traverser> traversers;

  // Execution-governance outcome (see WithExecContext): when a budget,
  // deadline, or cancellation tripped mid-pipeline, `truncated` is true,
  // `limit` carries the tripping Status, and `traversers` holds the
  // partial population at the deepest step reached. Ungoverned or
  // within-budget runs leave truncated == false and limit OK.
  bool truncated = false;
  Status limit;
  ExecStats stats;

  // The histories as a set.
  PathSet ToPathSet() const;
  // The cursor multiset, sorted (duplicates preserved unless Dedup() ran).
  std::vector<VertexId> Cursors() const;
  size_t Count() const { return traversers.size(); }
};

class GraphTraversal {
 public:
  explicit GraphTraversal(const MultiRelationalGraph& graph)
      : graph_(&graph) {}

  // --- Seed steps ---------------------------------------------------------
  // All vertices.
  GraphTraversal& V();
  // The given vertices.
  GraphTraversal& V(std::vector<VertexId> ids);
  // Vertices by name; unknown names are skipped.
  GraphTraversal& V(std::initializer_list<std::string_view> names);

  // --- Move steps ---------------------------------------------------------
  // Follow out-edges with any label / the given label / any listed label.
  GraphTraversal& Out();
  GraphTraversal& Out(LabelId label);
  GraphTraversal& Out(std::string_view label_name);
  GraphTraversal& OutAnyOf(std::vector<LabelId> labels);

  // Follow in-edges (cursor moves to the edge tail).
  GraphTraversal& In();
  GraphTraversal& In(LabelId label);
  GraphTraversal& In(std::string_view label_name);
  GraphTraversal& InAnyOf(std::vector<LabelId> labels);

  // Both directions in one step.
  GraphTraversal& Both();
  GraphTraversal& Both(LabelId label);

  // Repeats the previous move step `extra_times` more times.
  GraphTraversal& Times(size_t extra_times);

  // --- Filter steps -------------------------------------------------------
  // Keep traversers whose cursor is (not) in the set.
  GraphTraversal& HasCursor(std::vector<VertexId> allowed);
  GraphTraversal& HasCursorNot(std::vector<VertexId> forbidden);
  // Keep traversers satisfying an arbitrary predicate.
  GraphTraversal& Filter(std::function<bool(const Traverser&)> predicate);
  // Collapse traversers with identical cursors (keeps the first history).
  GraphTraversal& Dedup();
  // Keep at most n traversers (in current order).
  GraphTraversal& Limit(size_t n);
  // Keep traversers whose full history is joint (drops In-seamed ones).
  GraphTraversal& JointOnly();

  // --- Terminals ----------------------------------------------------------
  Result<TraversalResult> Execute() const;
  Result<PathSet> ToPathSet() const;
  Result<std::vector<VertexId>> Cursors() const;
  Result<size_t> Count() const;

  // Lowers a forward-only pipeline (seed + Out moves, no filters) to the
  // equivalent algebra expression — the bridge from the fluent API to the
  // planner/recognizer/counting machinery. Fails with Unimplemented when
  // the pipeline uses In/Both moves or filter steps (those have no
  // single-expression image).
  Result<PathExprPtr> ToExpr() const;

  // Abort evaluation once more than this many traversers are live (a hard
  // error, predating the governance machinery below).
  GraphTraversal& WithMaxTraversers(size_t cap);

  // Governs Execute()/ToPathSet()/Cursors()/Count() with the context's
  // deadline, budgets, and cancellation. On a trip the terminals degrade
  // gracefully: Execute() returns OK with TraversalResult::truncated set
  // and the partial traverser population (the path budget counts final
  // result traversers, charged in order, so a budget of k keeps the first
  // k). `exec` is not owned and must outlive the terminal call; pass
  // nullptr to restore ungoverned evaluation.
  GraphTraversal& WithExecContext(ExecContext* exec);

 private:
  enum class StepKind {
    kSeedAll,
    kSeedIds,
    kMoveOut,
    kMoveIn,
    kMoveBoth,
    kFilterCursorIn,
    kFilterCursorNotIn,
    kFilterPredicate,
    kDedup,
    kLimit,
    kJointOnly,
  };

  struct Step {
    StepKind kind;
    std::vector<uint32_t> ids;     // Seed vertices / allowed labels or ids.
    size_t limit = 0;
    std::function<bool(const Traverser&)> predicate;
  };

  GraphTraversal& AddMove(StepKind kind, std::vector<LabelId> labels);

  const MultiRelationalGraph* graph_;
  std::vector<Step> steps_;
  size_t max_traversers_ = 1'000'000;
  ExecContext* exec_ = nullptr;  // Nullable; not owned.
};

}  // namespace mrpa

#endif  // MRPA_ENGINE_TRAVERSAL_BUILDER_H_
