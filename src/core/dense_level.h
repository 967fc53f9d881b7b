// Dense-level expansion caches: the per-level machinery behind the adaptive
// sparse/dense switch in the fold kernel (core/fold_kernel.h; DESIGN.md
// "Dense-frontier execution").
//
// When a level goes dense, the step pattern's id constraints are lowered
// ONCE into allow-bitmaps (frontier/bitmap.h), and each distinct frontier
// vertex's matched run is computed ONCE with the dispatched SIMD filter
// kernels and memoized. The kernel then replays the frontier against the
// memo — the guard sequence (hard-limit, ChargePaths, CheckStep,
// ChargeBytes) is untouched, so governed output stays byte-identical to the
// sparse walk; only the per-edge Matches work is amortized.
//
// One cache per fold direction, with one interface — MatchedRun(v), the
// exact edge sequence the kernel's sparse walk from v would yield:
//
//   * ForwardLevelCache — matched OUT-edges per tail vertex, in out-run
//     (label, head) order: what ForEachMatchingOutEdge yields.
//   * BackwardLevelCache — matched IN-edges per head vertex, in in-index
//     (canonical edge) order.
//
// Caches are per (universe, step, level) and single-threaded, like the
// PathArena they sit beside. Spans returned by MatchedRun are invalidated
// by the next call on the same cache (a miss may grow the backing pool);
// consume before re-calling.

#ifndef MRPA_CORE_DENSE_LEVEL_H_
#define MRPA_CORE_DENSE_LEVEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/edge_pattern.h"
#include "core/edge_universe.h"
#include "core/ids.h"
#include "frontier/bitmap.h"

namespace mrpa {

// True when `pattern` does nontrivial per-edge match work a dense memo can
// amortize: a constrained label, or any tail/head constraint. A fully
// unconstrained step copies every out-edge either way — nothing to memoize —
// so the auto policy keeps it sparse (ShouldGoDense's benefits_from_filter
// input).
bool StepBenefitsFromDense(const EdgePattern& pattern);

// Lowers `constraint` into `bits` over ids [0, size): set ⇒ allowed.
// Returns false (bits untouched) when the constraint is unconstrained — the
// caller passes a null bitmap to the kernels instead, skipping the probe
// entirely. Out-of-range listed ids are ignored; they cannot name a real
// vertex/label, so dropping them preserves Matches semantics over the
// universe.
bool LowerConstraintToBitmap(const IdConstraint& constraint, uint32_t size,
                             frontier::BitmapFrontier& bits);

class ForwardLevelCache {
 public:
  // Lowers `step`'s constraints for one expansion level over `universe`.
  // Both must outlive the cache.
  ForwardLevelCache(const EdgeUniverse& universe, const EdgePattern& step);

  // The out-edges of `v` matching the step, in out-run (label, head) order —
  // elementwise identical to what ForEachMatchingOutEdge(universe, v, step)
  // would yield. First call per vertex filters (SIMD) and memoizes;
  // subsequent calls are a table lookup. The span is invalidated by the
  // next MatchedRun call.
  std::span<const Edge> MatchedRun(VertexId v);

  // Total uint64 bitmap words written while lowering the step's allow-sets
  // (the dense build cost; feeds obs frontier.words_scanned).
  uint64_t build_words() const { return build_words_; }

 private:
  static constexpr uint32_t kUnset = UINT32_MAX;

  const EdgeUniverse& universe_;
  const EdgePattern& step_;
  // When the step pins a single non-negated label, filter the
  // OutEdgesWithLabel sub-run instead of lowering a one-bit label bitmap.
  std::optional<LabelId> pinned_label_;
  frontier::BitmapFrontier label_bits_;
  frontier::BitmapFrontier head_bits_;
  bool label_constrained_ = false;
  bool head_constrained_ = false;
  uint64_t build_words_ = 0;

  std::vector<uint32_t> offset_;   // per vertex, into pool_; kUnset = miss
  std::vector<uint32_t> length_;   // per vertex
  std::vector<Edge> pool_;         // memoized matched runs, concatenated
  std::vector<uint32_t> idx_buf_;  // scratch for the filter kernel
};

class BackwardLevelCache {
 public:
  BackwardLevelCache(const EdgeUniverse& universe, const EdgePattern& step);

  // The in-edges of `v` matching the step, in InEdgeIndices(v) order.
  // Memoized per head vertex; the span is invalidated by the next
  // MatchedRun call.
  std::span<const Edge> MatchedRun(VertexId v);

  uint64_t build_words() const { return build_words_; }

 private:
  static constexpr uint32_t kUnset = UINT32_MAX;

  const EdgeUniverse& universe_;
  const EdgePattern& step_;
  // One bit per canonical edge index: set ⇒ the edge matches the step's
  // tail∧label constraints (head is fixed per in-run, tested once). Built
  // with one filter_edges sweep over AllEdges().
  frontier::BitmapFrontier match_bits_;
  uint64_t build_words_ = 0;

  std::vector<uint32_t> offset_;
  std::vector<uint32_t> length_;
  std::vector<Edge> pool_;          // memoized matched runs, concatenated
  std::vector<uint32_t> idx_buf_;  // scratch for the filter kernels
};

}  // namespace mrpa

#endif  // MRPA_CORE_DENSE_LEVEL_H_
