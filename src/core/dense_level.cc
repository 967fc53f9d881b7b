#include "core/dense_level.h"

#include <cassert>

#include "frontier/kernels.h"

namespace mrpa {

bool StepBenefitsFromDense(const EdgePattern& pattern) {
  return !pattern.label().IsUnconstrained() ||
         !pattern.tail().IsUnconstrained() || !pattern.head().IsUnconstrained();
}

bool LowerConstraintToBitmap(const IdConstraint& constraint, uint32_t size,
                             frontier::BitmapFrontier& bits) {
  if (constraint.IsUnconstrained()) return false;
  bits.Reset(size);
  if (constraint.negated()) {
    bits.SetAll();
    for (uint32_t id : *constraint.ids()) {
      if (id < size) bits.Clear(id);
    }
  } else {
    for (uint32_t id : *constraint.ids()) {
      if (id < size) bits.Set(id);
    }
  }
  return true;
}

ForwardLevelCache::ForwardLevelCache(const EdgeUniverse& universe,
                                     const EdgePattern& step)
    : universe_(universe), step_(step) {
  pinned_label_ = step.label().SingleId();
  if (!pinned_label_.has_value()) {
    label_constrained_ = LowerConstraintToBitmap(
        step.label(), universe.num_labels(), label_bits_);
    if (label_constrained_) build_words_ += label_bits_.num_words();
  }
  head_constrained_ =
      LowerConstraintToBitmap(step.head(), universe.num_vertices(), head_bits_);
  if (head_constrained_) build_words_ += head_bits_.num_words();
  offset_.assign(universe.num_vertices(), kUnset);
  length_.assign(universe.num_vertices(), 0);
}

std::span<const Edge> ForwardLevelCache::MatchedRun(VertexId v) {
  assert(v < offset_.size());
  if (offset_[v] == kUnset) {
    const uint32_t start = static_cast<uint32_t>(pool_.size());
    // The tail of every out-edge of v is v: one test covers the run.
    if (step_.tail().Matches(v)) {
      const std::span<const Edge> run =
          pinned_label_.has_value()
              ? universe_.OutEdgesWithLabel(v, *pinned_label_)
              : universe_.OutEdges(v);
      if (!run.empty()) {
        idx_buf_.resize(run.size());
        const size_t matched = frontier::Active().filter_edges(
            run.data(), run.size(), /*tail_bits=*/nullptr,
            label_constrained_ ? label_bits_.words() : nullptr,
            head_constrained_ ? head_bits_.words() : nullptr, idx_buf_.data());
        // No reserve here: an exact-capacity reserve per miss would defeat
        // geometric growth and turn the pool quadratic in distinct heads.
        for (size_t i = 0; i < matched; ++i) {
          pool_.push_back(run[idx_buf_[i]]);
        }
      }
    }
    offset_[v] = start;
    length_[v] = static_cast<uint32_t>(pool_.size()) - start;
  }
  return {pool_.data() + offset_[v], length_[v]};
}

BackwardLevelCache::BackwardLevelCache(const EdgeUniverse& universe,
                                       const EdgePattern& step)
    : universe_(universe), step_(step) {
  const size_t num_edges = universe.num_edges();
  match_bits_.Reset(static_cast<uint32_t>(num_edges));
  if (step.tail().IsUnconstrained() && step.label().IsUnconstrained()) {
    match_bits_.SetAll();
  } else {
    frontier::BitmapFrontier tail_bits;
    frontier::BitmapFrontier label_bits;
    const bool tail_constrained = LowerConstraintToBitmap(
        step.tail(), universe.num_vertices(), tail_bits);
    const bool label_constrained = LowerConstraintToBitmap(
        step.label(), universe.num_labels(), label_bits);
    build_words_ += (tail_constrained ? tail_bits.num_words() : 0) +
                    (label_constrained ? label_bits.num_words() : 0);
    const std::span<const Edge> all = universe.AllEdges();
    idx_buf_.resize(all.size());
    // filter_edges positions over AllEdges() ARE canonical edge indices.
    const size_t matched = frontier::Active().filter_edges(
        all.data(), all.size(), tail_constrained ? tail_bits.words() : nullptr,
        label_constrained ? label_bits.words() : nullptr,
        /*head_bits=*/nullptr, idx_buf_.data());
    for (size_t i = 0; i < matched; ++i) match_bits_.Set(idx_buf_[i]);
  }
  build_words_ += match_bits_.num_words();
  offset_.assign(universe.num_vertices(), kUnset);
  length_.assign(universe.num_vertices(), 0);
}

std::span<const Edge> BackwardLevelCache::MatchedRun(VertexId v) {
  assert(v < offset_.size());
  if (offset_[v] == kUnset) {
    const uint32_t start = static_cast<uint32_t>(pool_.size());
    // The head of every in-edge of v is v: one test covers the run.
    if (step_.head().Matches(v)) {
      const std::span<const EdgeIndex> run = universe_.InEdgeIndices(v);
      if (!run.empty()) {
        idx_buf_.resize(run.size());
        const size_t matched = frontier::Active().intersect_bitmap(
            run.data(), run.size(), match_bits_.words(), idx_buf_.data());
        const std::span<const Edge> all = universe_.AllEdges();
        for (size_t i = 0; i < matched; ++i) {
          pool_.push_back(all[idx_buf_[i]]);
        }
      }
    }
    offset_[v] = start;
    length_[v] = static_cast<uint32_t>(pool_.size()) - start;
  }
  return {pool_.data() + offset_[v], length_[v]};
}

}  // namespace mrpa
