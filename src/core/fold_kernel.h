// The fold kernel: the one level-loop body behind every governed chain
// evaluation (DESIGN.md "One fold, both ends").
//
// ⋈◦ is associative, so a step chain A₁ ⋈◦ ... ⋈◦ Aₙ denotes one path set
// whichever end it is folded from, and folding backward over E is folding
// forward over E's converse. The sequential fold in either direction
// (traversal.cc) and the parallel shard speculation (traversal_parallel.cc)
// are therefore one loop: seed with the matching edges of one end step,
// then for every further step extend each frontier path at its open end.
// FoldKernel is that loop's body, templated on the end it extends:
//
//   * kForward extends at γ+ with matching OUT-edges, in out-run
//     (label, head) order, chaining PREFIXES in the PathArena;
//   * kBackward extends at γ− with matching IN-edges, in in-index
//     (canonical edge) order, chaining SUFFIXES.
//
// It has two parts:
//
//   BeginLevel — the per-level strategy choice: the sparse walk, or a dense
//     memo (core/dense_level.h) when frontier::ShouldGoDense finds the
//     frontier's open-end vertices concentrated enough to amortize it.
//   Expand — the per-source expansion: visits the source's matching edges
//     and emits each extension through the one guard sequence
//
//       per matching edge: (final level only) ChargePaths;
//       per source path:   CheckStep(SourceSteps(matches)), then
//                          ChargeBytes(SourceBytes(matches))
//
//     and returns how the run ended as a SourceRecord — the unit the
//     parallel fold's ledger records and replays.
//
// Strategy cannot change the accounting: the dense memo yields exactly the
// edges the sparse walk would, in the same order, so forced-sparse,
// forced-dense and auto produce identical governed output. And because the
// rule counts matches, not candidates, a step budget means the same in both
// directions: a backward fold over E charges exactly what the forward fold
// over E's converse charges.
//
// A kernel is single-threaded state over one arena and one ExecContext,
// like the arena itself; the parallel fold runs one per shard. This header
// is internal to src/core: callers evaluate chains through
// core/traversal.h.

#ifndef MRPA_CORE_FOLD_KERNEL_H_
#define MRPA_CORE_FOLD_KERNEL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/dense_level.h"
#include "core/edge_pattern.h"
#include "core/edge_universe.h"
#include "core/path_arena.h"
#include "core/traversal.h"
#include "frontier/bitmap.h"
#include "frontier/policy.h"
#include "obs/obs.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {

// How one source path's expansion ended.
enum class RunEnd : uint8_t {
  // Fully enumerated; the per-source CheckStep/ChargeBytes passed.
  kComplete,
  // Final level only: ChargePaths tripped on a matching edge (there was at
  // least one more match than the budget allowed).
  kTripPaths,
  // Fully enumerated, but the per-source CheckStep or ChargeBytes tripped.
  kTripPost,
};

struct SourceRecord {
  uint32_t matches = 0;  // Extensions emitted for this source path.
  RunEnd end = RunEnd::kComplete;
};

// The one accounting rule (DESIGN.md "One fold, both ends"). Every fold
// charges through these: the kernel below as it enumerates, the count fold
// (traversal.cc) multiplied by the number of chains that share a vertex.
//   per seed edge:                 kSeedSteps steps, kSeedBytes bytes;
//   per source path with m matches: SourceSteps(m) steps, SourceBytes(m)
//                                   bytes;
// plus one path per full-length chain, charged on the final level only.
inline constexpr size_t kSeedSteps = 1;
inline constexpr size_t kSeedBytes = PathArena::kNodeBytes;
constexpr size_t SourceSteps(size_t matches) { return matches + 1; }
constexpr size_t SourceBytes(size_t matches) {
  return matches * PathArena::kNodeBytes;
}

// Charges the seed level's guards — per seed edge: CheckStep, ChargePaths
// when the seed level is also the final one, ChargeBytes — and returns how
// many of the `candidates` seeds were admitted before a trip.
inline size_t AdmitSeeds(size_t candidates, bool final_level,
                         ExecContext& ctx) {
  for (size_t i = 0; i < candidates; ++i) {
    if (!ctx.CheckStep(kSeedSteps).ok() ||
        (final_level && !ctx.ChargePaths().ok()) ||
        !ctx.ChargeBytes(kSeedBytes).ok()) {
      return i;
    }
  }
  return candidates;
}

template <ChainDirection kEnd>
class FoldKernel {
 public:
  // `policy` is used as given (callers calibrate it once per run).
  // `probe_timing`, when set, receives the frontier.kernel_nanos histogram
  // for each decision probe; shard workers pass null to keep their
  // observability thin. All references must outlive the kernel.
  FoldKernel(const EdgeUniverse& universe, PathArena& arena, ExecContext& ctx,
             const frontier::DensityPolicy& policy,
             obs::ObsRegistry* probe_timing = nullptr)
      : universe_(universe),
        arena_(arena),
        ctx_(ctx),
        policy_(policy),
        probe_timing_(probe_timing) {}

  // Starts an extension level by `step` over `frontier`. The decision probe
  // (open-end bitmap + popcount) runs only once the frontier is wide enough
  // for dense to be in play, so narrow levels pay two branch tests.
  void BeginLevel(const EdgePattern& step, bool final_level,
                  std::span<const PathNodeId> frontier) {
    step_ = &step;
    final_level_ = final_level;
    cache_.reset();
    if (policy_.mode != frontier::DensityMode::kForceSparse) {
      const bool benefits = StepBenefitsFromDense(step);
      if (policy_.mode == frontier::DensityMode::kForceDense ||
          (benefits && frontier.size() >= policy_.min_frontier_paths)) {
        std::chrono::steady_clock::time_point t0;
        if (probe_timing_ != nullptr) t0 = std::chrono::steady_clock::now();
        seen_.Reset(universe_.num_vertices());
        for (PathNodeId source : frontier) seen_.Set(OpenEnd(source));
        words_scanned_ += seen_.num_words();
        if (frontier::ShouldGoDense(policy_, frontier.size(), seen_.Count(),
                                    universe_.num_vertices(), benefits)) {
          cache_.emplace(universe_, step);
          words_scanned_ += cache_->build_words();
        }
        if (probe_timing_ != nullptr) {
          probe_timing_->Record(
              obs::Hist::kFrontierKernelNanos,
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count()));
        }
      }
    }
    if (cache_.has_value()) {
      ++dense_levels_;
    } else {
      ++sparse_levels_;
    }
  }

  // Extends `source` by every matching edge at its open end, appending the
  // new node ids to `next`. Steps and bytes are batched per source path to
  // keep the guard off the innermost loop — those budgets have one-run
  // granularity; the path budget is charged per emission, so a budget of k
  // keeps exactly the first k.
  SourceRecord Expand(PathNodeId source, std::vector<PathNodeId>& next) {
    SourceRecord record;
    auto emit = [&](const Edge& e) {
      if (record.end != RunEnd::kComplete) return;
      if (final_level_ && !ctx_.ChargePaths().ok()) {
        record.end = RunEnd::kTripPaths;
        return;
      }
      ++record.matches;
      next.push_back(arena_.Extend(source, e));
    };
    const VertexId v = OpenEnd(source);
    if (cache_.has_value()) {
      for (const Edge& e : cache_->MatchedRun(v)) emit(e);
    } else if constexpr (kForward) {
      ForEachMatchingOutEdge(universe_, v, *step_, emit);
    } else {
      ForEachMatchingInEdge(universe_, v, *step_, emit);
    }
    if (record.end == RunEnd::kComplete &&
        (!ctx_.CheckStep(SourceSteps(record.matches)).ok() ||
         !ctx_.ChargeBytes(SourceBytes(record.matches)).ok())) {
      record.end = RunEnd::kTripPost;
    }
    return record;
  }

  // Adds the run's strategy telemetry (frontier.* counters) to `reg`'s
  // `slot`; null no-ops.
  void FlushTelemetry(obs::ObsRegistry* reg, size_t slot = 0) const {
    if (reg == nullptr) return;
    reg->Add(obs::Metric::kFrontierDenseLevels, dense_levels_, slot);
    reg->Add(obs::Metric::kFrontierSparseLevels, sparse_levels_, slot);
    reg->Add(obs::Metric::kFrontierWordsScanned, words_scanned_, slot);
  }

 private:
  static constexpr bool kForward = kEnd == ChainDirection::kForward;
  using LevelCache =
      std::conditional_t<kForward, ForwardLevelCache, BackwardLevelCache>;

  // The open end of a frontier path: γ+ of a prefix chain, γ− of a suffix
  // chain — one load either way.
  VertexId OpenEnd(PathNodeId id) const {
    return kForward ? arena_.HeadOf(id) : arena_.TailOf(id);
  }

  const EdgeUniverse& universe_;
  PathArena& arena_;
  ExecContext& ctx_;
  const frontier::DensityPolicy policy_;
  obs::ObsRegistry* const probe_timing_;

  // The current level.
  const EdgePattern* step_ = nullptr;
  bool final_level_ = false;
  std::optional<LevelCache> cache_;

  // Reused level to level, so the decision probe allocates once per run.
  frontier::BitmapFrontier seen_;
  size_t dense_levels_ = 0;
  size_t sparse_levels_ = 0;
  uint64_t words_scanned_ = 0;
};

}  // namespace mrpa

#endif  // MRPA_CORE_FOLD_KERNEL_H_
