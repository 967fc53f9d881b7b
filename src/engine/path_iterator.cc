#include "engine/path_iterator.h"

#include <utility>

#include "obs/obs.h"

namespace mrpa {

StepPathIterator::StepPathIterator(const EdgeUniverse& universe,
                                   std::vector<EdgePattern> steps,
                                   ExecContext* exec)
    : universe_(universe), steps_(std::move(steps)), exec_(exec) {
  SeekToFirst();
}

void StepPathIterator::MarkTruncated(Status status) {
  truncated_ = true;
  status_ = std::move(status);
  valid_ = false;
  depth_ = 0;
  arena_.Clear();
  FlushObs();
}

void StepPathIterator::FlushObs() {
  if (obs_flushed_ || exec_ == nullptr) return;
  obs::ObsRegistry* reg = exec_->observer();
  if (reg == nullptr) return;
  obs_flushed_ = true;
  reg->Add(obs::Metric::kIteratorPathsYielded, yielded_);
  reg->Add(obs::Metric::kIteratorFramesFilled, frames_filled_);
}

void StepPathIterator::SeekToFirst() {
  // resize() keeps existing frames — and their candidate-vector capacity —
  // so a re-seek (and every step after warmup) runs allocation-free.
  frames_.resize(steps_.size());
  depth_ = 0;
  arena_.Clear();
  current_.Clear();
  yielded_ = 0;
  frames_filled_ = 0;
  obs_flushed_ = false;
  exhausted_epsilon_ = false;
  // A sticky ExecContext keeps a re-seek truncated too; the flags are only
  // reset so status() reflects this seek's outcome.
  truncated_ = false;
  status_ = Status::OK();

  if (steps_.empty()) {
    // The 0-step traversal denotes {ε}; ε still counts against the budget.
    if (exec_ != nullptr && !exec_->ChargePaths().ok()) {
      MarkTruncated(exec_->limit_status());
      return;
    }
    valid_ = true;
    yielded_ = 1;
    return;
  }

  if (!FillFrame(0, kInvalidVertex, frames_[0])) return;
  depth_ = 1;
  valid_ = true;  // Tentative; Advance() clears it if nothing exists.
  Advance();
}

void StepPathIterator::Next() {
  if (!valid_) return;
  if (steps_.empty()) {
    // ε was the only element.
    valid_ = false;
    exhausted_epsilon_ = true;
    FlushObs();
    return;
  }
  // Consume the deepest frame's current edge and move on.
  ++frames_[depth_ - 1].cursor;
  Advance();
}

bool StepPathIterator::FillFrame(size_t depth, VertexId prefix_head,
                                 Frame& frame) {
  ++frames_filled_;
  frame.candidates.clear();
  frame.cursor = 0;
  const EdgePattern& step = steps_[depth];
  if (depth == 0) {
    frame.candidates = CollectMatchingEdges(universe_, step);
  } else {
    ForEachMatchingOutEdge(universe_, prefix_head, step, [&](const Edge& e) {
      frame.candidates.push_back(e);
    });
  }
  if (exec_ != nullptr &&
      // One step per candidate considered — the same unit the materializing
      // fold charges, so the two engines trip at comparable points.
      !exec_->CheckStep(frame.candidates.size() + 1).ok()) {
    MarkTruncated(exec_->limit_status());
    return false;
  }
  return true;
}

void StepPathIterator::Advance() {
  // Invariant on entry to each loop turn: the arena holds exactly the
  // chosen-edge chain of frames_[0..depth_-2] (node ids 0..depth_-3 feed
  // depth_-2); the deepest frame's cursor edge is not yet in the arena.
  while (depth_ > 0) {
    Frame& top = frames_[depth_ - 1];
    if (top.cursor >= top.candidates.size()) {
      // This frame is exhausted; backtrack. Drop the spine node for the
      // edge we are abandoning — ids stay dense, capacity stays.
      --depth_;
      arena_.TruncateTo(depth_ == 0 ? 0 : depth_ - 1);
      if (depth_ > 0) ++frames_[depth_ - 1].cursor;
      continue;
    }
    if (depth_ == steps_.size()) {
      // A complete path: charge it, then materialize the spine plus the
      // deepest frame's edge into current_'s retained buffer.
      if (exec_ != nullptr && !exec_->ChargePaths().ok()) {
        MarkTruncated(exec_->limit_status());
        return;
      }
      if (depth_ == 1) {
        current_.Clear();
      } else {
        arena_.MaterializePrefixInto(static_cast<PathNodeId>(depth_ - 2),
                                     depth_ - 1, current_);
      }
      current_.Append(top.candidates[top.cursor]);
      ++yielded_;
      return;
    }
    // Descend: commit this frame's cursor edge to the spine, then fill the
    // next frame from its head.
    const Edge& chosen = top.candidates[top.cursor];
    if (depth_ == 1) {
      arena_.AddRoot(chosen);
    } else {
      arena_.Extend(static_cast<PathNodeId>(depth_ - 2), chosen);
    }
    if (!FillFrame(depth_, chosen.head, frames_[depth_])) return;
    ++depth_;
  }
  valid_ = false;
  FlushObs();
}

PathSet DrainToPathSet(StepPathIterator& it) {
  // DFS order is the canonical (lexicographic) order and every yielded path
  // is distinct, so the drain adopts without re-sorting.
  std::vector<Path> paths;
  for (; it.Valid(); it.Next()) paths.push_back(it.Current());
  return PathSet::FromSortedUnique(std::move(paths));
}

}  // namespace mrpa
