#include "service/query_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "obs/obs.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mrpa::service {

namespace {

using Clock = std::chrono::steady_clock;

// Governance statuses the caller receives as a degraded (truncated) OK
// response rather than an error.
bool IsDegradation(const Status& status) {
  return status.IsResourceExhausted() || status.IsDeadlineExceeded() ||
         status.IsCancelled();
}

QueryResponse DegradedResponse(Status status, size_t attempts,
                               Clock::time_point call_start) {
  QueryResponse response;
  response.result.truncated = true;
  response.result.stats.truncated = true;
  response.result.limit = std::move(status);
  response.attempts = attempts;
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - call_start);
  return response;
}

}  // namespace

QueryService::QueryService(SnapshotRegistry& snapshots, Options options)
    : snapshots_(snapshots),
      admission_([&] {
        // The admission controller and the service share one metrics sink,
        // and the global concurrency cap defaults to the evaluation pool's
        // width (queries beyond it would only queue inside the pool).
        AdmissionController::Options admission = options.admission;
        if (admission.obs == nullptr) admission.obs = options.obs;
        if (admission.global_max_in_flight == 0 && options.pool != nullptr) {
          admission.global_max_in_flight =
              std::max<size_t>(2, options.pool->num_threads());
        }
        return admission;
      }()),
      retry_(options.retry),
      pool_(options.pool),
      obs_(options.obs),
      retry_seed_(options.retry_seed) {}

Result<ExecLimits> QueryService::EffectiveLimits(
    std::string_view tenant, const QueryRequest& request) const {
  Result<TenantQuota> quota = admission_.GetQuota(tenant);
  if (!quota.ok()) return quota.status();
  return IntersectLimits(request.limits, quota->query_limits);
}

Result<QueryResponse> QueryService::Execute(std::string_view tenant,
                                            const QueryRequest& request) {
  const auto call_start = Clock::now();
  std::optional<Clock::time_point> abs_deadline;
  if (request.deadline.has_value()) {
    abs_deadline = call_start + *request.deadline;
  }

  Result<ExecLimits> effective = EffectiveLimits(tenant, request);
  if (!effective.ok()) return effective.status();

  // One deterministic jitter stream per call: reproducible given the seed
  // and the call order.
  Rng rng(SplitMix64(retry_seed_ ^
                     call_counter_.fetch_add(1, std::memory_order_relaxed))
              .Next());

  Status last_failure;
  for (size_t attempt = 1;; ++attempt) {
    AdmissionController::AdmitRequest admit;
    admit.tenant = tenant;
    admit.deadline = abs_deadline;
    Result<AdmissionController::Ticket> ticket = admission_.Admit(admit);

    if (!ticket.ok()) {
      last_failure = ticket.status();
      if (!RetryPolicy::IsRetryableAdmission(last_failure)) {
        // Terminal rejection. Deadline infeasibility is a governance
        // outcome (degraded response); unknown tenants are caller errors.
        if (IsDegradation(last_failure)) {
          return DegradedResponse(std::move(last_failure), attempt,
                                  call_start);
        }
        return last_failure;
      }
    } else {
      // The per-attempt governor: the intersected countable budgets, plus
      // whatever remains of the end-to-end deadline.
      ExecLimits attempt_limits = *effective;
      if (abs_deadline.has_value()) {
        const auto remaining = std::chrono::duration_cast<
            std::chrono::nanoseconds>(*abs_deadline - Clock::now());
        if (!attempt_limits.timeout.has_value() ||
            remaining < *attempt_limits.timeout) {
          attempt_limits.timeout =
              std::max(remaining, std::chrono::nanoseconds(0));
        }
      }
      Result<QueryResponse> response =
          ExecuteOnce(request, attempt_limits, std::move(*ticket));
      if (response.ok()) {
        response->attempts = attempt;
        response->latency =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - call_start);
        return response;
      }
      last_failure = response.status();
      if (!RetryPolicy::IsRetryableExecution(last_failure)) {
        if (IsDegradation(last_failure)) {
          return DegradedResponse(std::move(last_failure), attempt,
                                  call_start);
        }
        return last_failure;
      }
    }

    // Retryable failure: spend the retry budget, or degrade/fail out.
    if (attempt >= retry_.max_attempts) break;
    const auto backoff = retry_.BackoffFor(attempt, rng);
    if (abs_deadline.has_value() &&
        Clock::now() + backoff >= *abs_deadline) {
      // The backoff cannot fit: more attempts would only burn the deadline.
      return DegradedResponse(
          Status::DeadlineExceeded(
              "retry abandoned: the backoff delay exceeds the remaining "
              "deadline"),
          attempt, call_start);
    }
    if (obs_ != nullptr) obs_->Add(obs::Metric::kServiceRetries, 1);
    if (backoff > std::chrono::nanoseconds(0)) {
      std::this_thread::sleep_for(backoff);
    }
  }

  // Retry budget exhausted. Sheds degrade into the truncated-partial-result
  // shape; transient execution faults that never cleared surface as errors.
  if (IsDegradation(last_failure)) {
    return DegradedResponse(std::move(last_failure), retry_.max_attempts,
                            call_start);
  }
  return last_failure;
}

Result<QueryResponse> QueryService::ExecuteOnce(
    const QueryRequest& request, const ExecLimits& effective,
    AdmissionController::Ticket /*in-flight slot, held for the attempt*/) {
  SnapshotRegistry::Guard guard = snapshots_.Acquire();
  if (!guard) {
    return Status::NotFound("no snapshot has been published to the registry");
  }

  // The per-attempt transient-fault site: fires after admission and
  // snapshot acquisition, exactly where a real evaluation failure would.
  {
    Status fault = FaultProbe(kFaultSiteServiceExecute);
    if (!fault.ok()) return fault;
  }

  ExecContext ctx(effective, request.token);
  ctx.AttachObs(obs_);

  QueryResponse response;
  if (request.mode == AnswerMode::kPaths) {
    Result<GovernedPathSet> governed =
        Status::Internal("query kind not dispatched");
    switch (request.kind) {
      case QueryKind::kTraversal: {
        TraversalSpec spec;
        spec.steps = request.steps;
        if (pool_ != nullptr) {
          ParallelTraversalOptions parallel;
          parallel.pool = pool_;
          governed =
              TraverseParallelGoverned(guard.universe(), spec, ctx, parallel);
        } else {
          governed = TraverseGoverned(guard.universe(), spec, ctx);
        }
        break;
      }
      case QueryKind::kChainForward:
        governed = EvaluateChainGoverned(guard.universe(), request.steps,
                                         ChainDirection::kForward, ctx);
        break;
      case QueryKind::kChainBackward:
        governed = EvaluateChainGoverned(guard.universe(), request.steps,
                                         ChainDirection::kBackward, ctx);
        break;
    }
    if (!governed.ok()) return governed.status();
    response.result = std::move(*governed);
  } else {
    // Counted on this thread, in the direction the kind names.
    Result<GovernedCount> counted = CountChainGoverned(
        guard.universe(), request.steps,
        request.kind == QueryKind::kChainBackward ? ChainDirection::kBackward
                                                  : ChainDirection::kForward,
        ctx);
    if (!counted.ok()) return counted.status();
    response.result.truncated = counted->truncated;
    response.result.limit = std::move(counted->limit);
    response.result.stats = counted->stats;
    response.count = counted->count;
  }

  // A transient fault injected at an ExecContext probe site surfaces as a
  // truncated result with the fault in `limit`; to the service that is an
  // attempt failure (the partial output is discarded, the query is a pure
  // read), not an answer.
  if (response.result.truncated &&
      RetryPolicy::IsRetryableExecution(response.result.limit)) {
    return response.result.limit;
  }

  if (obs_ != nullptr) {
    obs_->Add(obs::Metric::kServiceQueriesExecuted, 1);
    obs_->Record(obs::Hist::kServiceExecNanos,
                 static_cast<uint64_t>(
                     std::max<int64_t>(0, ctx.Snapshot().elapsed_nanos)));
  }

  response.snapshot_version = guard.version();
  return response;
}

}  // namespace mrpa::service
