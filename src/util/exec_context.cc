#include "util/exec_context.h"

#include <string>

#include "obs/obs.h"

namespace mrpa {

static_assert(ExecContext::kNoObsSpan == obs::kNoSpan,
              "ExecContext's span sentinel must match obs::kNoSpan");

const Status& ExecContext::TripStepBudget() {
  Trip(Status::ResourceExhausted("step budget exceeded (" +
                                 std::to_string(max_steps_) + " steps)"));
  RecordTripObs(TripKind::kStepBudget);
  return limit_status_;
}

const Status& ExecContext::TripPathBudget() {
  Trip(Status::ResourceExhausted("path budget exceeded (" +
                                 std::to_string(max_paths_) + " paths)"));
  RecordTripObs(TripKind::kPathBudget);
  return limit_status_;
}

const Status& ExecContext::TripByteBudget() {
  Trip(Status::ResourceExhausted("memory budget exceeded (" +
                                 std::to_string(max_bytes_) + " bytes)"));
  RecordTripObs(TripKind::kByteBudget);
  return limit_status_;
}

const Status& ExecContext::TripFault(Status injected) {
  Trip(std::move(injected));
  RecordTripObs(TripKind::kFault);
  return limit_status_;
}

const Status& ExecContext::Poll() {
  if (token_.CancelRequested()) {
    Trip(Status::Cancelled("evaluation cancelled by caller"));
    RecordTripObs(TripKind::kCancelled);
    return limit_status_;
  }
  if (deadline_.has_value() && Clock::now() >= *deadline_) {
    Trip(Status::DeadlineExceeded("evaluation deadline exceeded"));
    RecordTripObs(TripKind::kDeadline);
    return limit_status_;
  }
  return limit_status_;
}

void ExecContext::RecordTripObs(TripKind kind) {
  if (obs_ == nullptr) return;
  obs::Metric metric;
  switch (kind) {
    case TripKind::kStepBudget:
      metric = obs::Metric::kExecTripsStepBudget;
      break;
    case TripKind::kPathBudget:
      metric = obs::Metric::kExecTripsPathBudget;
      break;
    case TripKind::kByteBudget:
      metric = obs::Metric::kExecTripsByteBudget;
      break;
    case TripKind::kDeadline:
      metric = obs::Metric::kExecTripsDeadline;
      break;
    case TripKind::kCancelled:
      metric = obs::Metric::kExecTripsCancelled;
      break;
    case TripKind::kFault:
      metric = obs::Metric::kExecTripsFault;
      break;
    default:
      return;
  }
  obs_->Add(metric, 1);
  obs_->AnnotateSpan(obs_span_, limit_status_.message());
}

ExecSpan::ExecSpan(ExecContext& ctx, std::string_view name, int64_t level,
                   int64_t shard) {
  obs::ObsRegistry* registry = ctx.observer();
  if (registry == nullptr) return;
  ctx_ = &ctx;
  prev_ = ctx.obs_span();
  id_ = registry->BeginSpan(name, prev_, level, shard);
  ctx.set_obs_span(id_);
}

ExecSpan::~ExecSpan() {
  if (ctx_ == nullptr) return;
  ctx_->set_obs_span(prev_);
  obs::ObsRegistry* registry = ctx_->observer();
  if (registry != nullptr) registry->EndSpan(id_);
}

void AddExecStatsDelta(obs::ObsRegistry& registry, const ExecStats& before,
                       const ExecStats& after) {
  registry.Add(obs::Metric::kExecStepsExpanded,
               after.steps_expanded - before.steps_expanded);
  registry.Add(obs::Metric::kExecPathsYielded,
               after.paths_yielded - before.paths_yielded);
  registry.Add(obs::Metric::kExecBytesCharged,
               after.bytes_charged - before.bytes_charged);
}

}  // namespace mrpa
