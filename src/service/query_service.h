// QueryService: the resilient serving substrate over the traversal stack.
//
// One service instance composes the pieces the previous PRs built into a
// multi-tenant front door:
//
//   AdmissionController — per-tenant token buckets, in-flight caps, bounded
//     FIFO queues, deadline-aware fast rejection, priority shedding;
//   SnapshotRegistry    — versioned SnapshotUniverse images, hot-swapped
//     with RCU-style epoch reclamation, so every admitted query runs to
//     completion on the image version it was admitted under;
//   RetryPolicy         — deterministic jittered backoff around transient
//     execution faults and admission sheds (never around budget trips);
//   ExecContext         — the per-query governor: the tenant's quota
//     ceilings intersected with the request's own budgets and deadline.
//
// Outcome contract: Execute() returns a non-OK Result only for caller or
// data errors (unknown tenant, no snapshot published, corrupt state).
// Every governance outcome — a complete answer, a budget trip mid-run, a
// shed at the front door, an exhausted retry budget — comes back OK as the
// truncated-partial-result shape the rest of the library already speaks:
// `result.paths` holds whatever full-length paths were produced (empty for
// sheds), `result.truncated` is set, and `result.limit` carries the
// terminal Status. Degraded answers are first-class results, not errors.
//
// Determinism: for countable budgets (steps/paths/bytes) an admitted
// query's output is byte-identical to a direct governed run of the same
// workload against the same snapshot version with the same effective
// limits — including when the service evaluates on a thread pool (the PR 2
// replay guarantee) — which is the differential invariant the chaos soak
// (tests/service_chaos_test.cc) checks on every response. Deadline and
// cancellation trips depend on wall clock and truncate at a
// still-canonical-prefix point.

#ifndef MRPA_SERVICE_QUERY_SERVICE_H_
#define MRPA_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "service/admission.h"
#include "service/retry.h"
#include "service/snapshot_registry.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {
class ThreadPool;
}  // namespace mrpa

namespace mrpa::service {

// Deterministic fault-injection site: probed once per execution attempt,
// after admission and snapshot acquisition, so tests inject transient
// faults exactly where a real evaluation failure would surface.
inline constexpr std::string_view kFaultSiteServiceExecute =
    "service.execute";

// The governed workloads the service executes. All three are pure reads
// over the acquired snapshot (idempotent, hence retryable).
enum class QueryKind {
  kTraversal,      // The §III fold (core/traversal.h), pool-parallel when
                   // the service has one.
  kChainForward,   // The chain planner's forward fold.
  kChainBackward,  // The chain planner's backward (in-index) fold.
};

// What the caller wants back. kPaths materializes the answer; kCount and
// kExists get its size (exists: size > 0) from the count fold
// (CountChainGoverned), which enumerates nothing unless a countable budget
// would trip — with the counters, truncation and limit of kPaths.
enum class AnswerMode : uint8_t {
  kPaths = 0,
  kCount = 1,
  kExists = 2,
};

struct QueryRequest {
  QueryKind kind = QueryKind::kTraversal;
  AnswerMode mode = AnswerMode::kPaths;
  // One EdgePattern per step, as in TraversalSpec / EvaluateChain.
  std::vector<EdgePattern> steps;
  // The caller's budgets; the tenant's quota ceilings clamp them
  // (IntersectLimits — tighter bound wins per dimension).
  ExecLimits limits;
  // End-to-end deadline for the whole call, retries and queueing included.
  std::optional<std::chrono::nanoseconds> deadline;
  // Cooperative cancellation; a copy is observed by the running evaluation.
  CancelToken token;
};

struct QueryResponse {
  // Paths, truncation flag, terminal Status, and ExecStats — the standard
  // governed result shape. The paths stay empty for kCount and kExists.
  GovernedPathSet result;
  // The answer's size, set by kCount and kExists executions; unset when
  // the paths are the answer.
  std::optional<uint64_t> count;
  // Snapshot image version the successful attempt ran against (0 when the
  // request never reached a snapshot, e.g. a shed).
  uint64_t snapshot_version = 0;
  // Attempts consumed, the successful one included.
  size_t attempts = 1;
  // Wall time of the whole call, queueing and retries included.
  std::chrono::nanoseconds latency{0};
};

class QueryService {
 public:
  struct Options {
    AdmissionController::Options admission;
    RetryPolicy retry;
    // Evaluation pool for kTraversal queries; null = sequential. Also
    // informs the default global in-flight cap.
    ThreadPool* pool = nullptr;
    // Metrics sink shared with the admission controller and the snapshot
    // registry owned by the caller. May be null.
    obs::ObsRegistry* obs = nullptr;
    // Seeds the per-call backoff jitter streams (deterministic given the
    // seed and the call order).
    uint64_t retry_seed = 0x5eed5eedULL;
  };

  // The registry is shared (a compactor or controller thread hot-swaps it
  // while the service runs) and must outlive the service.
  QueryService(SnapshotRegistry& snapshots, Options options);

  Status RegisterTenant(std::string_view name, const TenantQuota& quota) {
    return admission_.RegisterTenant(name, quota);
  }
  Status UpdateQuota(std::string_view name, const TenantQuota& quota) {
    return admission_.UpdateQuota(name, quota);
  }

  // Executes one governed query for `tenant`. See the outcome contract in
  // the file comment.
  Result<QueryResponse> Execute(std::string_view tenant,
                                const QueryRequest& request);

  // The limits an admitted query of `tenant` would run under — the exact
  // budgets a differential oracle must use to reproduce the service's
  // output byte-for-byte. kNotFound for unknown tenants.
  Result<ExecLimits> EffectiveLimits(std::string_view tenant,
                                     const QueryRequest& request) const;

  AdmissionController& admission() { return admission_; }
  SnapshotRegistry& snapshots() { return snapshots_; }

 private:
  // One execution attempt against the current snapshot. OK carries the
  // governed result; a non-OK Status is an attempt failure the retry loop
  // classifies.
  Result<QueryResponse> ExecuteOnce(const QueryRequest& request,
                                    const ExecLimits& effective,
                                    AdmissionController::Ticket ticket);

  SnapshotRegistry& snapshots_;
  AdmissionController admission_;
  RetryPolicy retry_;
  ThreadPool* pool_ = nullptr;
  obs::ObsRegistry* obs_ = nullptr;
  uint64_t retry_seed_ = 0;
  std::atomic<uint64_t> call_counter_{0};
};

}  // namespace mrpa::service

#endif  // MRPA_SERVICE_QUERY_SERVICE_H_
