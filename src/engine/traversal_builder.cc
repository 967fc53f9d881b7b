#include "engine/traversal_builder.h"

#include <algorithm>
#include <unordered_set>

namespace mrpa {

PathSet TraversalResult::ToPathSet() const {
  PathSetBuilder builder;
  for (const Traverser& t : traversers) builder.Add(t.history);
  return builder.Build();
}

std::vector<VertexId> TraversalResult::Cursors() const {
  std::vector<VertexId> cursors;
  cursors.reserve(traversers.size());
  for (const Traverser& t : traversers) cursors.push_back(t.cursor);
  std::sort(cursors.begin(), cursors.end());
  return cursors;
}

GraphTraversal& GraphTraversal::V() {
  steps_.push_back({StepKind::kSeedAll, {}, 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::V(std::vector<VertexId> ids) {
  steps_.push_back({StepKind::kSeedIds, std::move(ids), 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::V(
    std::initializer_list<std::string_view> names) {
  std::vector<VertexId> ids;
  for (std::string_view name : names) {
    if (auto id = graph_->FindVertex(name); id.has_value()) {
      ids.push_back(*id);
    }
  }
  return V(std::move(ids));
}

GraphTraversal& GraphTraversal::AddMove(StepKind kind,
                                        std::vector<LabelId> labels) {
  steps_.push_back({kind, std::move(labels), 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::Out() { return AddMove(StepKind::kMoveOut, {}); }
GraphTraversal& GraphTraversal::Out(LabelId label) {
  return AddMove(StepKind::kMoveOut, {label});
}
GraphTraversal& GraphTraversal::Out(std::string_view label_name) {
  auto id = graph_->FindLabel(label_name);
  // An unknown label matches nothing: encode as an impossible label id.
  return AddMove(StepKind::kMoveOut, {id.value_or(kInvalidLabel)});
}
GraphTraversal& GraphTraversal::OutAnyOf(std::vector<LabelId> labels) {
  return AddMove(StepKind::kMoveOut, std::move(labels));
}

GraphTraversal& GraphTraversal::In() { return AddMove(StepKind::kMoveIn, {}); }
GraphTraversal& GraphTraversal::In(LabelId label) {
  return AddMove(StepKind::kMoveIn, {label});
}
GraphTraversal& GraphTraversal::In(std::string_view label_name) {
  auto id = graph_->FindLabel(label_name);
  return AddMove(StepKind::kMoveIn, {id.value_or(kInvalidLabel)});
}
GraphTraversal& GraphTraversal::InAnyOf(std::vector<LabelId> labels) {
  return AddMove(StepKind::kMoveIn, std::move(labels));
}

GraphTraversal& GraphTraversal::Both() {
  return AddMove(StepKind::kMoveBoth, {});
}
GraphTraversal& GraphTraversal::Both(LabelId label) {
  return AddMove(StepKind::kMoveBoth, {label});
}

GraphTraversal& GraphTraversal::Times(size_t extra_times) {
  if (!steps_.empty()) {
    Step last = steps_.back();
    for (size_t k = 0; k < extra_times; ++k) steps_.push_back(last);
  }
  return *this;
}

GraphTraversal& GraphTraversal::HasCursor(std::vector<VertexId> allowed) {
  steps_.push_back(
      {StepKind::kFilterCursorIn, std::move(allowed), 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::HasCursorNot(
    std::vector<VertexId> forbidden) {
  steps_.push_back(
      {StepKind::kFilterCursorNotIn, std::move(forbidden), 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::Filter(
    std::function<bool(const Traverser&)> predicate) {
  steps_.push_back(
      {StepKind::kFilterPredicate, {}, 0, std::move(predicate)});
  return *this;
}

GraphTraversal& GraphTraversal::Dedup() {
  steps_.push_back({StepKind::kDedup, {}, 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::Limit(size_t n) {
  steps_.push_back({StepKind::kLimit, {}, n, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::JointOnly() {
  steps_.push_back({StepKind::kJointOnly, {}, 0, nullptr});
  return *this;
}

GraphTraversal& GraphTraversal::WithMaxTraversers(size_t cap) {
  max_traversers_ = cap;
  return *this;
}

GraphTraversal& GraphTraversal::WithExecContext(ExecContext* exec) {
  exec_ = exec;
  return *this;
}

namespace {

bool LabelAllowed(const std::vector<uint32_t>& labels, LabelId label) {
  return labels.empty() ||
         std::find(labels.begin(), labels.end(), label) != labels.end();
}

}  // namespace

Result<PathExprPtr> GraphTraversal::ToExpr() const {
  if (steps_.empty()) {
    return Status::Unimplemented("an empty pipeline has no expression image");
  }
  PathExprPtr expr;
  size_t cursor = 0;

  // The seed becomes the tail restriction of the first move (or a bare
  // source set when there are no moves at all — not expressible, since
  // expressions denote path sets, not vertex sets).
  IdConstraint seed_tails;  // Unconstrained = V (the kSeedAll case).
  switch (steps_[0].kind) {
    case StepKind::kSeedAll:
      break;
    case StepKind::kSeedIds:
      seed_tails = IdConstraint(
          std::vector<uint32_t>(steps_[0].ids.begin(), steps_[0].ids.end()));
      break;
    default:
      return Status::Unimplemented(
          "pipeline must begin with a V() seed to lower to an expression");
  }
  cursor = 1;

  bool first_move = true;
  for (; cursor < steps_.size(); ++cursor) {
    const Step& step = steps_[cursor];
    if (step.kind != StepKind::kMoveOut) {
      return Status::Unimplemented(
          "only forward Out moves lower to expressions; step " +
          std::to_string(cursor) + " is not one");
    }
    IdConstraint labels =
        step.ids.empty()
            ? IdConstraint()
            : IdConstraint(
                  std::vector<uint32_t>(step.ids.begin(), step.ids.end()));
    EdgePattern pattern(first_move ? seed_tails : IdConstraint(),
                        std::move(labels), IdConstraint());
    PathExprPtr atom = PathExpr::Atom(std::move(pattern));
    expr = expr ? PathExpr::MakeJoin(std::move(expr), std::move(atom))
                : std::move(atom);
    first_move = false;
  }
  if (!expr) {
    return Status::Unimplemented(
        "a seed with no moves denotes a vertex set, not a path set");
  }
  return expr;
}

Result<TraversalResult> GraphTraversal::Execute() const {
  TraversalResult result;
  std::vector<Traverser>& current = result.traversers;

  // Governance trip: keep the partial population, flag it, and return OK —
  // the truncation contract of DESIGN.md.
  Status trip;
  auto truncate = [&]() -> Result<TraversalResult> {
    result.truncated = true;
    result.limit = std::move(trip);
    result.stats = exec_->Snapshot();
    return result;
  };

  for (const Step& step : steps_) {
    switch (step.kind) {
      case StepKind::kSeedAll: {
        current.clear();
        current.reserve(graph_->num_vertices());
        for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
          if (exec_ != nullptr && !exec_->CheckStep().ok()) {
            trip = exec_->limit_status();
            return truncate();
          }
          current.push_back({Path(), v});
        }
        break;
      }
      case StepKind::kSeedIds: {
        current.clear();
        for (VertexId v : step.ids) {
          if (exec_ != nullptr && !exec_->CheckStep().ok()) {
            trip = exec_->limit_status();
            return truncate();
          }
          if (v < graph_->num_vertices()) current.push_back({Path(), v});
        }
        break;
      }
      case StepKind::kMoveOut:
      case StepKind::kMoveIn:
      case StepKind::kMoveBoth: {
        std::vector<Traverser> next;
        for (const Traverser& t : current) {
          if (step.kind != StepKind::kMoveIn) {
            for (const Edge& e : graph_->OutEdges(t.cursor)) {
              if (exec_ != nullptr &&
                  (!exec_->CheckStep().ok() ||
                   !exec_->ChargeBytes(ApproxBytes(t.history) + sizeof(Edge))
                        .ok())) {
                trip = exec_->limit_status();
                break;
              }
              if (!LabelAllowed(step.ids, e.label)) continue;
              Traverser moved{t.history, e.head};
              moved.history.Append(e);
              next.push_back(std::move(moved));
            }
          }
          if (trip.ok() && step.kind != StepKind::kMoveOut) {
            for (EdgeIndex idx : graph_->InEdgeIndices(t.cursor)) {
              if (exec_ != nullptr &&
                  (!exec_->CheckStep().ok() ||
                   !exec_->ChargeBytes(ApproxBytes(t.history) + sizeof(Edge))
                        .ok())) {
                trip = exec_->limit_status();
                break;
              }
              const Edge& e = graph_->EdgeAt(idx);
              if (!LabelAllowed(step.ids, e.label)) continue;
              Traverser moved{t.history, e.tail};
              moved.history.Append(e);
              next.push_back(std::move(moved));
            }
          }
          if (!trip.ok()) {
            // The partial `next` population reached the deepest step.
            current = std::move(next);
            return truncate();
          }
          if (next.size() > max_traversers_) {
            return Status::ResourceExhausted(
                "traversal exceeded max_traversers = " +
                std::to_string(max_traversers_));
          }
        }
        current = std::move(next);
        break;
      }
      case StepKind::kFilterCursorIn:
      case StepKind::kFilterCursorNotIn: {
        const bool keep_if_in = step.kind == StepKind::kFilterCursorIn;
        std::vector<VertexId> sorted(step.ids.begin(), step.ids.end());
        std::sort(sorted.begin(), sorted.end());
        std::erase_if(current, [&](const Traverser& t) {
          bool in_set =
              std::binary_search(sorted.begin(), sorted.end(), t.cursor);
          return in_set != keep_if_in;
        });
        break;
      }
      case StepKind::kFilterPredicate: {
        std::erase_if(current,
                      [&](const Traverser& t) { return !step.predicate(t); });
        break;
      }
      case StepKind::kDedup: {
        std::unordered_set<VertexId> seen;
        std::vector<Traverser> deduped;
        for (Traverser& t : current) {
          if (seen.insert(t.cursor).second) deduped.push_back(std::move(t));
        }
        current = std::move(deduped);
        break;
      }
      case StepKind::kLimit: {
        if (current.size() > step.limit) current.resize(step.limit);
        break;
      }
      case StepKind::kJointOnly: {
        std::erase_if(current, [](const Traverser& t) {
          return !t.history.IsJoint();
        });
        break;
      }
    }
  }

  // The path budget counts final result traversers, charged in canonical
  // order — a budget of k keeps exactly the first k.
  if (exec_ != nullptr) {
    size_t kept = 0;
    for (; kept < current.size(); ++kept) {
      if (!exec_->ChargePaths().ok()) {
        trip = exec_->limit_status();
        break;
      }
    }
    if (!trip.ok()) {
      current.resize(kept);
      result.truncated = true;
      result.limit = std::move(trip);
    }
    result.stats = exec_->Snapshot();
  }
  return result;
}

Result<PathSet> GraphTraversal::ToPathSet() const {
  Result<TraversalResult> result = Execute();
  if (!result.ok()) return result.status();
  return result->ToPathSet();
}

Result<std::vector<VertexId>> GraphTraversal::Cursors() const {
  Result<TraversalResult> result = Execute();
  if (!result.ok()) return result.status();
  return result->Cursors();
}

Result<size_t> GraphTraversal::Count() const {
  Result<TraversalResult> result = Execute();
  if (!result.ok()) return result.status();
  return result->Count();
}

}  // namespace mrpa
