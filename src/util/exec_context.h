// Execution governance for long-running evaluations.
//
// The algebra's result languages can be combinatorially large even on small
// graphs, so a serving engine must never trust a query to terminate within
// bounded time or memory. ExecContext is the cooperative guard threaded
// through every evaluation loop (Traverse, StepPathIterator, the regex
// recognizer/generator/sampler, the chain planner, graph I/O):
//
//   * a wall-clock deadline           (kDeadlineExceeded when passed)
//   * a result-path budget            (kResourceExhausted when exceeded)
//   * an expansion-step budget        (kResourceExhausted when exceeded)
//   * a memory budget, estimated from materialized path bytes
//                                     (kResourceExhausted when exceeded)
//   * a cooperative CancelToken       (kCancelled when requested)
//
// Loops call CheckStep()/ChargePaths()/ChargeBytes() once per unit of work.
// Checks are sticky: the first limit to trip is recorded, and every later
// check returns the same status immediately, so nested loops unwind fast.
// Deadline and cancellation are polled every kPollStride steps to keep
// clock reads off the hot path; a default-constructed (unlimited) context
// costs one increment and one compare per check — see bench_guard_overhead
// (E15) for the measured cost.
//
// Callers that want graceful degradation (the truncation contract in
// DESIGN.md) catch the trip, mark their partial result `truncated`, and
// return it alongside the limit Status and a Snapshot() of the counters.
//
// ExecContext is single-evaluation state: not thread-safe, not copyable.
// CancelToken is the cross-thread handle — copy it into a controller thread
// and call RequestCancel() there.

#ifndef MRPA_UTIL_EXEC_CONTEXT_H_
#define MRPA_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>

#include "util/fault_injector.h"
#include "util/status.h"

namespace mrpa::obs {
class ObsRegistry;
}  // namespace mrpa::obs

namespace mrpa {

// A shared cancellation flag. Copies observe the same flag; requesting
// cancellation is safe from any thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }
  bool CancelRequested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Budgets for one evaluation. nullopt means unlimited.
struct ExecLimits {
  // Wall-clock allowance, measured from ExecContext construction.
  std::optional<std::chrono::nanoseconds> timeout;
  // Result paths the evaluation may yield (full-length paths for
  // traversals, accepted paths for generators, traversers for the fluent
  // engine, edges for graph readers).
  std::optional<size_t> max_paths;
  // Expansion steps: candidate edges considered, NFA transitions taken,
  // table entries computed, input lines read, ...
  std::optional<size_t> max_steps;
  // Estimated bytes of materialized paths (see ApproxBytes in path_set.h).
  std::optional<size_t> max_bytes;

  static ExecLimits Unlimited() { return {}; }
};

// Counters describing how far an evaluation got. Returned by
// ExecContext::Snapshot() and embedded in governed results so callers can
// see what a truncated answer cost and covered.
struct ExecStats {
  size_t paths_yielded = 0;
  size_t steps_expanded = 0;
  size_t bytes_charged = 0;
  int64_t elapsed_nanos = 0;
  // True once any limit (or cancellation / injected fault) tripped.
  bool truncated = false;
};

class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  // Deadline/cancellation poll cadence, in steps. Power of two.
  static constexpr size_t kPollStride = 64;

  // An unlimited context: checks never fail (unless a fault is injected).
  ExecContext() : ExecContext(ExecLimits::Unlimited()) {}

  explicit ExecContext(const ExecLimits& limits,
                       CancelToken token = CancelToken())
      : token_(std::move(token)),
        start_(Clock::now()),
        max_paths_(limits.max_paths.value_or(kNoLimit)),
        max_steps_(limits.max_steps.value_or(kNoLimit)),
        max_bytes_(limits.max_bytes.value_or(kNoLimit)) {
    if (limits.timeout.has_value()) deadline_ = start_ + *limits.timeout;
  }

  // Convenience factories for the common single-limit cases.
  static ExecContext WithTimeout(std::chrono::nanoseconds timeout) {
    ExecLimits limits;
    limits.timeout = timeout;
    return ExecContext(limits);
  }
  static ExecContext WithPathBudget(size_t max_paths) {
    ExecLimits limits;
    limits.max_paths = max_paths;
    return ExecContext(limits);
  }
  static ExecContext WithStepBudget(size_t max_steps) {
    ExecLimits limits;
    limits.max_steps = max_steps;
    return ExecContext(limits);
  }
  static ExecContext WithByteBudget(size_t max_bytes) {
    ExecLimits limits;
    limits.max_bytes = max_bytes;
    return ExecContext(limits);
  }

  // One guard per evaluation: not copyable, movable for factory returns.
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;
  ExecContext(ExecContext&&) noexcept = default;
  ExecContext& operator=(ExecContext&&) noexcept = default;

  // Counts `n` expansion steps. The hot-path check: an add, a compare, and
  // every kPollStride-th call a deadline/cancel poll. Everything past the
  // compare lives out of line in exec_context.cc.
  //
  // The checks return a reference to the sticky limit status (OK until the
  // first trip) rather than a fresh Status, so the OK path constructs
  // nothing. The reference is invalidated by moving the context; hot loops
  // should test `.ok()` and copy only on failure.
  const Status& CheckStep(size_t n = 1) {
    if (!limit_status_.ok()) return limit_status_;
    stats_.steps_expanded += n;
    if (probe_faults_ && FaultInjector::AnyArmed()) [[unlikely]] {
      Status injected = FaultInjector::Global().Probe(kFaultSiteBudgetCheck);
      if (!injected.ok()) return TripFault(std::move(injected));
    }
    if (stats_.steps_expanded > max_steps_) [[unlikely]] {
      return TripStepBudget();
    }
    if (++steps_since_poll_ >= kPollStride) [[unlikely]] {
      steps_since_poll_ = 0;
      return Poll();
    }
    return limit_status_;
  }

  // Counts `n` yielded result paths. Call BEFORE emitting the paths and
  // emit only on OK, so a budget of k yields exactly the first k results.
  const Status& ChargePaths(size_t n = 1) {
    if (!limit_status_.ok()) return limit_status_;
    stats_.paths_yielded += n;
    if (stats_.paths_yielded > max_paths_) [[unlikely]] {
      stats_.paths_yielded -= n;  // The paths were not emitted.
      return TripPathBudget();
    }
    return limit_status_;
  }

  // Counts `n` bytes of materialized paths against the memory budget.
  const Status& ChargeBytes(size_t n) {
    if (!limit_status_.ok()) return limit_status_;
    stats_.bytes_charged += n;
    if (probe_faults_ && FaultInjector::AnyArmed()) [[unlikely]] {
      Status injected = FaultInjector::Global().Probe(kFaultSiteAlloc);
      if (!injected.ok()) return TripFault(std::move(injected));
    }
    if (stats_.bytes_charged > max_bytes_) [[unlikely]] {
      return TripByteBudget();
    }
    return limit_status_;
  }

  // Forces a deadline + cancellation poll (normally strided). Useful at
  // phase boundaries where a loop wants a definite answer.
  const Status& CheckDeadline() {
    if (!limit_status_.ok()) return limit_status_;
    return Poll();
  }

  // True once any limit tripped; limit_status() is the tripping Status
  // (OK while the evaluation is still within budget).
  bool Exceeded() const { return !limit_status_.ok(); }
  const Status& limit_status() const { return limit_status_; }

  const CancelToken& token() const { return token_; }

  // The unspent portion of this context's countable budgets, as limits a
  // shard evaluation could be constructed from. An unlimited dimension stays
  // unlimited; a spent one clamps to zero. The timeout dimension is never
  // populated — shard contexts share the parent's absolute deadline through
  // ShardContext() instead, because a relative timeout would restart the
  // clock.
  ExecLimits RemainingLimits() const {
    ExecLimits remaining;
    auto left = [](size_t limit, size_t used) -> std::optional<size_t> {
      if (limit == kNoLimit) return std::nullopt;
      return limit > used ? limit - used : 0;
    };
    remaining.max_paths = left(max_paths_, stats_.paths_yielded);
    remaining.max_steps = left(max_steps_, stats_.steps_expanded);
    remaining.max_bytes = left(max_bytes_, stats_.bytes_charged);
    return remaining;
  }

  // A context for speculative shard work under `parent`: same CancelToken,
  // same absolute deadline, the given countable budgets — and fault probes
  // DISABLED. Shards run concurrently, so letting them hit the global
  // FaultInjector would scramble its deterministic nth-probe counting; the
  // caller replays all accounting (and probing) against the parent in
  // sequential order afterwards. See "Parallel traversal" in DESIGN.md.
  static ExecContext ShardContext(const ExecContext& parent,
                                  const ExecLimits& limits) {
    ExecContext shard(limits, parent.token_);
    shard.start_ = parent.start_;
    shard.deadline_ = parent.deadline_;
    shard.probe_faults_ = false;
    return shard;
  }

  // --- Observability (src/obs/) ---
  //
  // An attached ObsRegistry receives governance-trip counters from the cold
  // paths and operator/level/shard breakdowns from the engines (which read
  // observer() at their boundaries). Null — the default — means every hook
  // is skipped: the hot-path checks above are untouched either way, because
  // the only instrumented ExecContext code is the out-of-line trip/poll
  // slow paths. The registry must outlive the context; ShardContext
  // children never inherit it (speculative shard work is replayed against
  // the parent, so observing shards directly would double-count).
  void AttachObs(obs::ObsRegistry* registry) { obs_ = registry; }
  obs::ObsRegistry* observer() const { return obs_; }

  // The innermost open trace span, maintained by ExecSpan below. Trips
  // annotate this span so a trace shows exactly where a budget burned out.
  static constexpr uint32_t kNoObsSpan = 0xffffffffu;  // == obs::kNoSpan
  uint32_t obs_span() const { return obs_span_; }
  void set_obs_span(uint32_t id) { obs_span_ = id; }

  // Counters so far, with elapsed time filled in.
  ExecStats Snapshot() const {
    ExecStats snapshot = stats_;
    snapshot.elapsed_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count();
    return snapshot;
  }

 private:
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

  const Status& Trip(Status status) {
    limit_status_ = std::move(status);
    stats_.truncated = true;
    return limit_status_;
  }

  // Which governance limit a trip charged, for obs attribution.
  enum class TripKind {
    kStepBudget,
    kPathBudget,
    kByteBudget,
    kDeadline,
    kCancelled,
    kFault,
  };

  // Cold paths, out of line (exec_context.cc): message formatting, the
  // clock read, and the obs trip hooks stay off the hot loop.
  const Status& TripStepBudget();
  const Status& TripPathBudget();
  const Status& TripByteBudget();
  const Status& TripFault(Status injected);
  const Status& Poll();

  // Counts the (sticky, hence unique) trip into the attached registry and
  // annotates the innermost open span with the tripping Status. No-op when
  // no registry is attached.
  void RecordTripObs(TripKind kind);

  CancelToken token_;
  Clock::time_point start_;
  std::optional<Clock::time_point> deadline_;
  size_t max_paths_;
  size_t max_steps_;
  size_t max_bytes_;
  size_t steps_since_poll_ = 0;
  // False only for ShardContext() children: speculative shard work must not
  // consume the FaultInjector's deterministic probe sequence.
  bool probe_faults_ = true;
  ExecStats stats_;
  Status limit_status_;  // Sticky: OK until the first trip.
  obs::ObsRegistry* obs_ = nullptr;
  uint32_t obs_span_ = kNoObsSpan;
};

// RAII trace-span scope bound to an ExecContext: opens a span (child of the
// context's current span) in the attached registry and makes it current, so
// nested ExecSpans form the span tree and trips annotate the innermost
// frame. Inert — no code beyond a null test — when no registry is attached.
// Scoped strictly (not movable): destruction restores the previous span.
class ExecSpan {
 public:
  ExecSpan() = default;
  ExecSpan(ExecContext& ctx, std::string_view name, int64_t level = -1,
           int64_t shard = -1);
  ~ExecSpan();

  ExecSpan(const ExecSpan&) = delete;
  ExecSpan& operator=(const ExecSpan&) = delete;

  // The opened span's id (kNoObsSpan when inert), for parenting spans that
  // outlive this scope's stack frame (e.g. parallel shard spans).
  uint32_t id() const { return id_; }

 private:
  ExecContext* ctx_ = nullptr;
  uint32_t prev_ = ExecContext::kNoObsSpan;
  uint32_t id_ = ExecContext::kNoObsSpan;
};

// Adds the per-run growth of the ExecContext accounting (steps, paths,
// bytes) between two snapshots into the registry's exec.* counters. Engines
// call this once at operator exit with the snapshot taken at entry, so one
// context serving many evaluations still attributes each run exactly once.
void AddExecStatsDelta(obs::ObsRegistry& registry, const ExecStats& before,
                       const ExecStats& after);

}  // namespace mrpa

#endif  // MRPA_UTIL_EXEC_CONTEXT_H_
