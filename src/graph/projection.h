// §IV-C: constructing "semantically rich" single-relational graphs from a
// multi-relational graph.
//
// The paper describes three methods of feeding a multi-relational graph to
// single-relational algorithms; all three are implemented so experiment E8
// can compare them:
//
//   1. FlattenIgnoringLabels — ignore edge labels (and collapse repeated
//      edges between the same vertex pair). The paper's "loss of meaning"
//      method.
//   2. ExtractLabelRelation  — E_α = {(γ−(e), γ+(e)) | e ∈ E ∧ ω(e) = α}:
//      pull out a single relation by label.
//   3. ProjectPaths / DeriveRelation — E_αβ = ⋃_{a ∈ A ⋈◦ B} (γ−(a), γ+(a)):
//      derive *implicit* edges from paths, either from an explicit label
//      sequence (αβ-paths) or from any PathExpr via the regular path
//      generator.

#ifndef MRPA_GRAPH_PROJECTION_H_
#define MRPA_GRAPH_PROJECTION_H_

#include <vector>

#include "core/expr.h"
#include "core/path_set.h"
#include "graph/binary_graph.h"
#include "graph/multi_graph.h"
#include "util/status.h"

namespace mrpa {

// Method 1: the label-ignoring flattening. Every (i, α, j) becomes (i, j).
BinaryGraph FlattenIgnoringLabels(const MultiRelationalGraph& graph);

// Method 2: E_α — the single relation named by `label`.
BinaryGraph ExtractLabelRelation(const MultiRelationalGraph& graph,
                                 LabelId label);

// Endpoint projection ⋃_{a ∈ paths} (γ−(a), γ+(a)). Paths must be non-ε to
// contribute (ε has no endpoints); ε paths are skipped.
BinaryGraph ProjectPaths(const PathSet& paths, uint32_t num_vertices);

// Method 3a: E_{α1...αk} — endpoints of all joint paths whose path label is
// exactly the given sequence (the paper's E_αβ generalized to length k).
Result<BinaryGraph> DeriveLabelSequenceRelation(
    const MultiRelationalGraph& graph, const std::vector<LabelId>& labels);

// Method 3b: the general form — endpoints of all paths denoted by `expr`
// (a regular path generator feeds this; see regex/generator.h).
Result<BinaryGraph> DeriveRelation(const MultiRelationalGraph& graph,
                                   const PathExpr& expr,
                                   const EvalOptions& options = {});

}  // namespace mrpa

#endif  // MRPA_GRAPH_PROJECTION_H_
