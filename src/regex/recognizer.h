// Regular path recognizers (§IV-A).
//
// Given a regular path expression R over E, a recognizer decides whether a
// concrete path a ∈ E* belongs to the denoted path set. Two engines:
//
//   * NfaRecognizer — simulates the ε-NFA directly. Fully general: handles
//     ×◦ (disjoint seams) and disjoint input paths via the break-armed
//     position machinery in nfa.h. O(|a| · |states| · |patterns|) worst case.
//
//   * DfaRecognizer — a thin wrapper over the shared LazyDfa
//     (regex/lazy_dfa.h): lazily determinized, amortized O(|a|) per joint
//     path once warm. Restricted to joint-only expressions and joint
//     inputs; Compile() rejects expressions with ×◦ seams.
//
// Both engines agree with PathExpr::Evaluate membership (see the property
// tests) — recognizer, generator, and evaluator share one semantics.

#ifndef MRPA_REGEX_RECOGNIZER_H_
#define MRPA_REGEX_RECOGNIZER_H_

#include <span>

#include "core/path.h"
#include "core/path_set.h"
#include "regex/lazy_dfa.h"
#include "regex/nfa.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {

class NfaRecognizer {
 public:
  explicit NfaRecognizer(Nfa nfa) : nfa_(std::move(nfa)) {}

  // Compiles the expression; never fails for well-formed expressions except
  // on oversized power unrolls.
  static Result<NfaRecognizer> Compile(const PathExpr& expr);

  // True iff `path` is in the expression's language. ε is accepted iff the
  // start closure reaches the accept state.
  bool Recognize(const Path& path) const;

  // Governed recognition: charges one step per live NFA position per input
  // edge (the worst-case simulation cost), so adversarially wide frontiers
  // trip the step budget or deadline instead of running unbounded. On a
  // trip the verdict is unavailable — the guard's Status comes back.
  Result<bool> Recognize(const Path& path, ExecContext& ctx) const;

  // Span forms: recognition over any contiguous edge sequence, without
  // constructing a Path. Streaming engines (arena frontiers, reused
  // scratch buffers) judge candidates here copy-free; the Path overloads
  // are thin wrappers over these.
  bool Recognize(std::span<const Edge> edges) const;
  Result<bool> Recognize(std::span<const Edge> edges, ExecContext& ctx) const;

  // Batch filtering: { p ∈ candidates | p ∈ L(R) }, the recognizer-guided
  // step of §IV-A used to refine traversal output.
  PathSet AcceptedSubset(const PathSet& candidates) const;

  // Governed batch filtering: each path's simulation is charged (one
  // CheckStep(frontier+1) per input edge) in canonical candidate order; a
  // trip stops the scan, and the result holds the accepted paths among the
  // candidates fully recognized before the trip, with `truncated` set.
  Result<GovernedPathSet> AcceptedSubsetGoverned(const PathSet& candidates,
                                                 ExecContext& ctx) const;

  const Nfa& nfa() const { return nfa_; }

 private:
  Result<bool> RecognizeImpl(std::span<const Edge> edges,
                             ExecContext* ctx) const;

  Nfa nfa_;
};

class DfaRecognizer {
 public:
  // Fails with InvalidArgument when the expression contains ×◦ seams
  // (including disjoint literals) — use NfaRecognizer for those.
  static Result<DfaRecognizer> Compile(const PathExpr& expr);

  // Lazy recognition; non-const because new DFA states/transitions may be
  // materialized. Fails with InvalidArgument for disjoint input paths.
  Result<bool> Recognize(const Path& path);

  // Governed recognition: one step charged per input edge (each may
  // materialize a new DFA state). Trips surface as the guard's Status.
  Result<bool> Recognize(const Path& path, ExecContext& ctx);

  // Introspection for tests and the E5 bench.
  size_t num_dfa_states() const { return dfa_.num_states(); }
  size_t num_edge_classes() const { return dfa_.num_edge_classes(); }

 private:
  explicit DfaRecognizer(LazyDfa dfa) : dfa_(std::move(dfa)) {}

  LazyDfa dfa_;
};

}  // namespace mrpa

#endif  // MRPA_REGEX_RECOGNIZER_H_
