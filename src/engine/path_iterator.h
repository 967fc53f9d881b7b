// Lazy path enumeration (RocksDB-style iterators).
//
// Materializing a PathSet is the right model for the algebra, but an engine
// often only needs to stream paths (count them, take the first k, feed a
// projection). StepPathIterator enumerates the joint paths of an n-step
// pattern traversal — the same language FoldJoin/Traverse materializes —
// one path at a time, in depth-first (lexicographic) order, holding only
// the DFS spine in memory.
//
// Usage follows the RocksDB Iterator idiom:
//   StepPathIterator it(graph, steps);
//   for (it.SeekToFirst(); it.Valid(); it.Next()) use(it.Current());
//
// Execution governance: pass an ExecContext to bound the enumeration. When
// a budget, deadline, or cancellation trips, the iterator simply becomes
// invalid — paths yielded before the trip were already streamed to the
// caller (the iterator's natural truncation contract). Distinguish
// exhaustion from truncation with truncated()/status() after the loop:
//
//   StepPathIterator it(graph, steps, &ctx);
//   for (; it.Valid(); it.Next()) use(it.Current());
//   if (it.truncated()) log(it.status());   // partial enumeration
//
// Under a path budget of k, the iterator yields exactly the first k paths
// of the DFS order — the same k paths TraverseGoverned reports under the
// same budget.

#ifndef MRPA_ENGINE_PATH_ITERATOR_H_
#define MRPA_ENGINE_PATH_ITERATOR_H_

#include <cstddef>
#include <vector>

#include "core/edge_pattern.h"
#include "core/edge_universe.h"
#include "core/path.h"
#include "core/path_arena.h"
#include "core/path_set.h"
#include "util/exec_context.h"

namespace mrpa {

class StepPathIterator {
 public:
  // `steps` may be empty, in which case the iterator yields exactly ε.
  // The universe, the iterator, and (when given) the ExecContext must
  // outlive each other's use; none is owned. A null `exec` means
  // ungoverned enumeration.
  StepPathIterator(const EdgeUniverse& universe,
                   std::vector<EdgePattern> steps,
                   ExecContext* exec = nullptr);

  // Positions at the first path (implicitly called by the constructor).
  // Note: re-seeking does not reset the ExecContext — budgets span the
  // whole iterator lifetime.
  void SeekToFirst();

  bool Valid() const { return valid_; }

  // Advances to the next path in lexicographic order. Requires Valid().
  void Next();

  // The current path; valid until the next Next()/SeekToFirst(). Requires
  // Valid().
  const Path& Current() const { return current_; }

  // Paths yielded so far (including the current one).
  size_t yielded() const { return yielded_; }

  // True once an ExecContext limit (or injected fault) stopped the
  // enumeration early; status() is then the tripping Status. A naturally
  // exhausted iterator has truncated() == false and an OK status().
  bool truncated() const { return truncated_; }
  const Status& status() const { return status_; }

 private:
  struct Frame {
    // The candidate edges for this step (the matching out-run of the
    // previous head, or the step-0 seed edges) and the cursor within them.
    // Frames are persistent — candidates.clear() keeps the allocation, so
    // a warm iterator refills frames without touching the heap.
    std::vector<Edge> candidates;
    size_t cursor = 0;
  };

  // Fills `frame` with step `depth` candidates extending `prefix_head`
  // (ignored at depth 0). Returns false when the step budget tripped.
  bool FillFrame(size_t depth, VertexId prefix_head, Frame& frame);

  // Descends from the current spine until a full-length path is assembled
  // or the spine empties.
  void Advance();

  // Records a governance trip and invalidates the iterator.
  void MarkTruncated(Status status);

  // Adds this enumeration's iterator.* counters into the registry attached
  // to exec_ (if any), once per seek. The iterator streams — there is no
  // single exit like the fold's — so the flush fires at whichever terminal
  // transition happens first: a governance trip, the spine exhausting, or
  // the ε-iterator's single element being consumed. Abandoned-mid-stream
  // iterators never flush; counters describe completed enumerations.
  void FlushObs();

  const EdgeUniverse& universe_;
  std::vector<EdgePattern> steps_;
  ExecContext* exec_;  // Nullable; not owned.
  // One frame per step, allocated once; depth_ counts the active prefix
  // (the DFS stack is frames_[0..depth_-1]).
  std::vector<Frame> frames_;
  size_t depth_ = 0;
  // The chosen-edge spine above the deepest frame, as a prefix-sharing
  // chain: the edge chosen at depth d lives at node id d (ids are
  // sequential because TruncateTo on backtrack keeps them dense), so a
  // complete path materializes from node steps-2 plus the deepest frame's
  // cursor edge — into current_'s retained capacity, allocation-free once
  // warm.
  PathArena arena_;
  Path current_;
  bool valid_ = false;
  bool exhausted_epsilon_ = false;  // For the empty-steps case.
  size_t yielded_ = 0;
  size_t frames_filled_ = 0;  // FillFrame calls this seek (obs only).
  bool obs_flushed_ = false;  // One FlushObs per seek.
  bool truncated_ = false;
  Status status_;
};

// Drains the iterator into a PathSet — equivalent to Traverse() and used to
// cross-check the two engines in tests. A governed iterator that trips
// mid-drain yields the prefix it managed; inspect it.truncated() after.
PathSet DrainToPathSet(StepPathIterator& it);

}  // namespace mrpa

#endif  // MRPA_ENGINE_PATH_ITERATOR_H_
