#include "regex/recognizer.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace mrpa {

Result<NfaRecognizer> NfaRecognizer::Compile(const PathExpr& expr) {
  Result<Nfa> nfa = CompileToNfa(expr);
  if (!nfa.ok()) return nfa.status();
  return NfaRecognizer(std::move(nfa).value());
}

bool NfaRecognizer::Recognize(const Path& path) const {
  // Ungoverned simulation never fails: the null-context impl only returns
  // a non-OK Status when a guard is present.
  return RecognizeImpl(path.edges(), nullptr).value();
}

Result<bool> NfaRecognizer::Recognize(const Path& path,
                                      ExecContext& ctx) const {
  return RecognizeImpl(path.edges(), &ctx);
}

bool NfaRecognizer::Recognize(std::span<const Edge> edges) const {
  return RecognizeImpl(edges, nullptr).value();
}

Result<bool> NfaRecognizer::Recognize(std::span<const Edge> edges,
                                      ExecContext& ctx) const {
  return RecognizeImpl(edges, &ctx);
}

Result<bool> NfaRecognizer::RecognizeImpl(std::span<const Edge> edges,
                                          ExecContext* ctx) const {
  // Position 0 has no previous edge, so adjacency is vacuously satisfied:
  // start with the break armed.
  std::vector<NfaPosition> current = {{nfa_.start(), true}};
  EpsilonClose(nfa_, current);

  for (size_t n = 0; n < edges.size(); ++n) {
    if (ctx != nullptr) {
      // The frontier width is the per-edge simulation cost.
      MRPA_RETURN_IF_ERROR(ctx->CheckStep(current.size() + 1));
    }
    const Edge& e = edges[n];
    const bool adjacent = n == 0 || edges[n - 1].head == e.tail;
    std::vector<NfaPosition> next;
    for (const NfaPosition& pos : current) {
      if (!pos.break_armed && !adjacent) continue;
      for (const NfaTransition& t : nfa_.TransitionsFrom(pos.state)) {
        if (t.type != NfaTransition::Type::kConsume) continue;
        if (!nfa_.patterns()[t.pattern_id].Matches(e)) continue;
        next.push_back({t.target, false});
      }
    }
    if (next.empty()) return false;
    EpsilonClose(nfa_, next);
    current = std::move(next);
  }

  return std::any_of(current.begin(), current.end(),
                     [&](const NfaPosition& pos) {
                       return pos.state == nfa_.accept();
                     });
}

PathSet NfaRecognizer::AcceptedSubset(const PathSet& candidates) const {
  std::vector<Path> kept;
  for (const Path& p : candidates) {
    if (Recognize(p)) kept.push_back(p);
  }
  return PathSet::FromSortedUnique(std::move(kept));
}

Result<GovernedPathSet> NfaRecognizer::AcceptedSubsetGoverned(
    const PathSet& candidates, ExecContext& ctx) const {
  GovernedPathSet out;

  // Boundary observability: candidates counts paths judged to completion
  // (a mid-simulation trip leaves the path uncounted), accepted the kept
  // subset.
  obs::ObsRegistry* const reg = ctx.observer();
  ExecStats obs_before;
  if (reg != nullptr) obs_before = ctx.Snapshot();
  ExecSpan batch_span(ctx, "recognizer.batch");
  size_t judged = 0;

  // Recognize in canonical order; the first trip ends the scan with the
  // accepted prefix.
  std::vector<Path> kept;
  for (const Path& p : candidates) {
    Result<bool> verdict = RecognizeImpl(p.edges(), &ctx);
    if (!verdict.ok()) {
      out.truncated = true;
      out.limit = verdict.status();
      break;
    }
    ++judged;
    if (reg != nullptr) {
      reg->Record(obs::Hist::kRecognizerPathLength, p.length());
    }
    if (*verdict) kept.push_back(p);
  }
  out.paths = PathSet::FromSortedUnique(std::move(kept));
  if (reg != nullptr) {
    reg->Add(obs::Metric::kRecognizerBatchCandidates, judged);
    reg->Add(obs::Metric::kRecognizerBatchAccepted, out.paths.size());
    AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
  }
  out.stats = ctx.Snapshot();
  return out;
}

Result<DfaRecognizer> DfaRecognizer::Compile(const PathExpr& expr) {
  Result<LazyDfa> dfa = LazyDfa::Compile(expr);
  if (!dfa.ok()) {
    if (dfa.status().IsInvalidArgument()) {
      return Status::InvalidArgument(
          "expression contains ×◦ seams; DFA recognition is restricted to "
          "joint-only expressions — use NfaRecognizer");
    }
    return dfa.status();
  }
  return DfaRecognizer(std::move(dfa).value());
}

Result<bool> DfaRecognizer::Recognize(const Path& path) {
  if (!path.IsJoint()) {
    return Status::InvalidArgument(
        "DFA recognition requires a joint input path");
  }
  uint32_t state = dfa_.start();
  for (const Edge& e : path) {
    state = dfa_.Step(state, e);
    if (state == LazyDfa::kDead) return false;
  }
  return dfa_.accepting(state);
}

Result<bool> DfaRecognizer::Recognize(const Path& path, ExecContext& ctx) {
  if (!path.IsJoint()) {
    return Status::InvalidArgument(
        "DFA recognition requires a joint input path");
  }
  uint32_t state = dfa_.start();
  for (const Edge& e : path) {
    // One step per edge; lazy determinization may materialize a state here.
    MRPA_RETURN_IF_ERROR(ctx.CheckStep());
    state = dfa_.Step(state, e);
    if (state == LazyDfa::kDead) return false;
  }
  return dfa_.accepting(state);
}

}  // namespace mrpa
