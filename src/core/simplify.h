// Algebraic simplification of path expressions.
//
// Rewrites an expression tree to a smaller language-equivalent one using
// identities the paper's algebra guarantees:
//
//   R ∪ ∅ = ∅ ∪ R = R          R ∪ R = R
//   R ⋈◦ ε = ε ⋈◦ R = R        R ⋈◦ ∅ = ∅ ⋈◦ R = ∅
//   R ×◦ ε = ε ×◦ R = R        R ×◦ ∅ = ∅ ×◦ R = ∅
//   ∅* = ε* = ε                (R*)* = R*      (R?)* = R*   (R*)? = R*
//   ∅+ = ∅    ε+ = ε           (R*)+ = R*      (R+)+ = R+
//   ∅? = ε    ε? = ε           (R?)? = R?
//   R^0 = ε   R^1 = R          ∅^n = ∅ (n ≥ 1)  ε^n = ε
//   {} (empty literal) = ∅     {ε} (epsilon literal) = ε
//
// Every rewrite preserves the denoted language — the property tests verify
// equivalence on random graphs. The closure collapses do not hold under
// EvalOptions::max_star_expansion, so this serves the derivative recognizer
// (regex/derivatives.h), whose languages are unbounded; bounded evaluation
// uses the compiler's bounded-safe simplify pass (compiler/passes.h).

#ifndef MRPA_CORE_SIMPLIFY_H_
#define MRPA_CORE_SIMPLIFY_H_

#include "core/expr.h"

namespace mrpa {

// Returns a language-equivalent expression with the identities above
// applied bottom-up (a fixed point for this rule set). Shares unchanged
// subtrees with the input.
PathExprPtr Simplify(const PathExprPtr& expr);

}  // namespace mrpa

#endif  // MRPA_CORE_SIMPLIFY_H_
