// EdgePattern: the paper's set-builder notation for subsets of E (§IV-A).
//
//   [i, _, _]  all edges emanating from vertex i        → EdgePattern::From(i)
//   [_, α, _]  all edges labeled α                      → EdgePattern::Labeled(α)
//   [_, _, j]  all edges terminating at vertex j        → EdgePattern::Into(j)
//   [_, _, _]  E itself                                 → EdgePattern::Any()
//
// Patterns generalize the single-id forms to *sets* of allowed tails, labels,
// and heads, which is what the basic traversals of §III need (Vs, Vd, Ωe are
// sets). An unconstrained position matches everything. Complement sets
// ("start anywhere except Vs", §III-B) are expressed with the `negate_*`
// flags.

#ifndef MRPA_CORE_EDGE_PATTERN_H_
#define MRPA_CORE_EDGE_PATTERN_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/edge.h"
#include "core/edge_universe.h"
#include "core/ids.h"

namespace mrpa {

// A sorted id set used as one positional constraint; empty optional means
// "unconstrained".
class IdConstraint {
 public:
  // Unconstrained (matches every id).
  IdConstraint() = default;

  // Constrains to exactly the given ids (duplicates removed). When `negated`,
  // matches every id NOT in the set.
  explicit IdConstraint(std::vector<uint32_t> ids, bool negated = false);

  // Constrains to a single id.
  static IdConstraint Exactly(uint32_t id) {
    return IdConstraint(std::vector<uint32_t>{id});
  }

  bool IsUnconstrained() const { return !ids_.has_value(); }
  bool Matches(uint32_t id) const;

  // The single allowed id, when the constraint is a non-negated singleton;
  // nullopt otherwise. Lets evaluators pick a point index lookup.
  std::optional<uint32_t> SingleId() const;

  const std::optional<std::vector<uint32_t>>& ids() const { return ids_; }
  bool negated() const { return negated_; }

  friend bool operator==(const IdConstraint&, const IdConstraint&) = default;

 private:
  std::optional<std::vector<uint32_t>> ids_;  // Sorted when present.
  bool negated_ = false;
};

// A predicate over E: tail ∈ Vs ∧ label ∈ Ωe ∧ head ∈ Vd, with each position
// independently constrainable.
class EdgePattern {
 public:
  // [_, _, _] = E.
  EdgePattern() = default;

  EdgePattern(IdConstraint tail, IdConstraint label, IdConstraint head)
      : tail_(std::move(tail)),
        label_(std::move(label)),
        head_(std::move(head)) {}

  // The paper's three single-id set-builder forms plus E.
  static EdgePattern Any() { return EdgePattern(); }
  static EdgePattern From(VertexId i) {
    return EdgePattern(IdConstraint::Exactly(i), {}, {});
  }
  static EdgePattern Labeled(LabelId alpha) {
    return EdgePattern({}, IdConstraint::Exactly(alpha), {});
  }
  static EdgePattern Into(VertexId j) {
    return EdgePattern({}, {}, IdConstraint::Exactly(j));
  }

  // A pattern matching exactly one edge, {(i, α, j)}.
  static EdgePattern Exactly(const Edge& e) {
    return EdgePattern(IdConstraint::Exactly(e.tail),
                       IdConstraint::Exactly(e.label),
                       IdConstraint::Exactly(e.head));
  }

  // Set-valued restrictions used by the §III traversal idioms.
  static EdgePattern FromAnyOf(std::vector<VertexId> sources,
                               bool negated = false) {
    return EdgePattern(IdConstraint(std::move(sources), negated), {}, {});
  }
  static EdgePattern IntoAnyOf(std::vector<VertexId> destinations,
                               bool negated = false) {
    return EdgePattern({}, {}, IdConstraint(std::move(destinations), negated));
  }
  static EdgePattern LabeledAnyOf(std::vector<LabelId> labels,
                                  bool negated = false) {
    return EdgePattern({}, IdConstraint(std::move(labels), negated), {});
  }

  bool Matches(const Edge& e) const {
    return tail_.Matches(e.tail) && label_.Matches(e.label) &&
           head_.Matches(e.head);
  }

  bool IsUnconstrained() const {
    return tail_.IsUnconstrained() && label_.IsUnconstrained() &&
           head_.IsUnconstrained();
  }

  const IdConstraint& tail() const { return tail_; }
  const IdConstraint& label() const { return label_; }
  const IdConstraint& head() const { return head_; }

  friend bool operator==(const EdgePattern&, const EdgePattern&) = default;

  // "[i, _, _]"-style rendering.
  std::string ToString() const;

 private:
  IdConstraint tail_;
  IdConstraint label_;
  IdConstraint head_;
};

// Materializes { e ∈ E | pattern.Matches(e) }, choosing the cheapest access
// path the universe offers (point out-edge scan, in-index, label index, or
// full scan).
std::vector<Edge> CollectMatchingEdges(const EdgeUniverse& universe,
                                       const EdgePattern& pattern);

// Invokes `fn(edge)` for every out-edge of `v` matching `pattern`. This is
// the traversal inner loop: when the pattern pins a single (non-negated)
// label, only that label's sub-run of the out-adjacency is visited.
template <typename Fn>
void ForEachMatchingOutEdge(const EdgeUniverse& universe, VertexId v,
                            const EdgePattern& pattern, Fn&& fn) {
  if (auto label = pattern.label().SingleId(); label.has_value()) {
    for (const Edge& e : universe.OutEdgesWithLabel(v, *label)) {
      if (pattern.tail().Matches(e.tail) && pattern.head().Matches(e.head)) {
        fn(e);
      }
    }
    return;
  }
  for (const Edge& e : universe.OutEdges(v)) {
    if (pattern.Matches(e)) fn(e);
  }
}

// Invokes `fn(edge)` for every in-edge of `v` matching `pattern`, in
// in-index (canonical edge) order: the backward counterpart of
// ForEachMatchingOutEdge. Every in-edge of v has head v, so one head test
// covers the run.
template <typename Fn>
void ForEachMatchingInEdge(const EdgeUniverse& universe, VertexId v,
                           const EdgePattern& pattern, Fn&& fn) {
  if (!pattern.head().Matches(v)) return;
  const std::span<const Edge> all = universe.AllEdges();
  for (EdgeIndex idx : universe.InEdgeIndices(v)) {
    const Edge& e = all[idx];
    if (pattern.tail().Matches(e.tail) && pattern.label().Matches(e.label)) {
      fn(e);
    }
  }
}

}  // namespace mrpa

#endif  // MRPA_CORE_EDGE_PATTERN_H_
