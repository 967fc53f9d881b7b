#include "core/edge_pattern.h"

#include <algorithm>
#include <sstream>

namespace mrpa {

IdConstraint::IdConstraint(std::vector<uint32_t> ids, bool negated)
    : negated_(negated) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ids_ = std::move(ids);
}

bool IdConstraint::Matches(uint32_t id) const {
  if (!ids_.has_value()) return true;
  bool in_set = std::binary_search(ids_->begin(), ids_->end(), id);
  return negated_ ? !in_set : in_set;
}

std::optional<uint32_t> IdConstraint::SingleId() const {
  if (ids_.has_value() && ids_->size() == 1 && !negated_) {
    return ids_->front();
  }
  return std::nullopt;
}

namespace {

std::string ConstraintToString(const IdConstraint& c) {
  if (c.IsUnconstrained()) return "_";
  std::ostringstream os;
  if (c.negated()) os << '!';  // Matches the parser's complement syntax.
  if (c.ids()->size() == 1) {
    os << c.ids()->front();
  } else {
    os << '{';
    for (size_t i = 0; i < c.ids()->size(); ++i) {
      if (i > 0) os << ',';
      os << (*c.ids())[i];
    }
    os << '}';
  }
  return os.str();
}

}  // namespace

std::string EdgePattern::ToString() const {
  std::ostringstream os;
  os << '[' << ConstraintToString(tail_) << ", " << ConstraintToString(label_)
     << ", " << ConstraintToString(head_) << ']';
  return os.str();
}

std::vector<Edge> CollectMatchingEdges(const EdgeUniverse& universe,
                                       const EdgePattern& pattern) {
  std::vector<Edge> out;

  // Access path 1: a single allowed tail — scan that vertex's out-run.
  if (auto tail = pattern.tail().SingleId(); tail.has_value()) {
    if (*tail < universe.num_vertices()) {
      for (const Edge& e : universe.OutEdges(*tail)) {
        if (pattern.Matches(e)) out.push_back(e);
      }
    }
    return out;
  }

  // Access path 2: a small set of allowed tails.
  if (!pattern.tail().IsUnconstrained() && !pattern.tail().negated()) {
    for (VertexId v : *pattern.tail().ids()) {
      if (v >= universe.num_vertices()) continue;
      for (const Edge& e : universe.OutEdges(v)) {
        if (pattern.Matches(e)) out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Access path 3: a single allowed head — use the in-index.
  if (auto head = pattern.head().SingleId(); head.has_value()) {
    if (*head < universe.num_vertices()) {
      ForEachMatchingInEdge(universe, *head, pattern,
                            [&](const Edge& e) { out.push_back(e); });
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Access path 4: a single allowed label — use the label index.
  if (auto label = pattern.label().SingleId(); label.has_value()) {
    if (*label < universe.num_labels()) {
      for (EdgeIndex idx : universe.LabelEdgeIndices(*label)) {
        const Edge& e = universe.EdgeAt(idx);
        if (pattern.Matches(e)) out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Fallback: full scan of the canonical edge array (already sorted).
  for (const Edge& e : universe.AllEdges()) {
    if (pattern.Matches(e)) out.push_back(e);
  }
  return out;
}

}  // namespace mrpa
