// Unit tests for the ExecContext guard itself: budget arithmetic, sticky
// trip semantics, deadline/cancellation polling, and snapshot counters.
// The end-to-end governance of each evaluation loop lives in
// governance_test.cc.

#include "util/exec_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace mrpa {
namespace {

TEST(ExecContextTest, UnlimitedContextNeverTrips) {
  ExecContext ctx;
  for (int n = 0; n < 10'000; ++n) {
    ASSERT_TRUE(ctx.CheckStep().ok());
  }
  EXPECT_TRUE(ctx.ChargePaths(1'000'000).ok());
  EXPECT_TRUE(ctx.ChargeBytes(1'000'000'000).ok());
  EXPECT_FALSE(ctx.Exceeded());
  EXPECT_FALSE(ctx.Snapshot().truncated);
}

TEST(ExecContextTest, StepBudgetTripsAtExactBoundary) {
  ExecContext ctx = ExecContext::WithStepBudget(5);
  for (int n = 0; n < 5; ++n) {
    ASSERT_TRUE(ctx.CheckStep().ok()) << "step " << n;
  }
  Status trip = ctx.CheckStep();
  EXPECT_TRUE(trip.IsResourceExhausted()) << trip.ToString();
  EXPECT_TRUE(ctx.Exceeded());
}

TEST(ExecContextTest, TripIsSticky) {
  ExecContext ctx = ExecContext::WithStepBudget(1);
  ASSERT_TRUE(ctx.CheckStep().ok());
  Status first = ctx.CheckStep();
  ASSERT_FALSE(first.ok());
  // Every later check — of any kind — returns the same status immediately.
  EXPECT_EQ(ctx.CheckStep().code(), first.code());
  EXPECT_EQ(ctx.ChargePaths().code(), first.code());
  EXPECT_EQ(ctx.ChargeBytes(1).code(), first.code());
  EXPECT_EQ(ctx.CheckDeadline().code(), first.code());
  EXPECT_EQ(ctx.limit_status().code(), first.code());
}

TEST(ExecContextTest, PathBudgetYieldsExactlyK) {
  ExecContext ctx = ExecContext::WithPathBudget(3);
  size_t yielded = 0;
  for (int n = 0; n < 10; ++n) {
    if (!ctx.ChargePaths().ok()) break;
    ++yielded;
  }
  EXPECT_EQ(yielded, 3u);
  // The rejected charge was rolled back: the counter reports paths that
  // were actually emitted.
  EXPECT_EQ(ctx.Snapshot().paths_yielded, 3u);
  EXPECT_TRUE(ctx.limit_status().IsResourceExhausted());
}

TEST(ExecContextTest, ByteBudgetTrips) {
  ExecContext ctx = ExecContext::WithByteBudget(100);
  EXPECT_TRUE(ctx.ChargeBytes(60).ok());
  EXPECT_TRUE(ctx.ChargeBytes(40).ok());  // Exactly at the limit: fine.
  EXPECT_TRUE(ctx.ChargeBytes(1).IsResourceExhausted());
}

TEST(ExecContextTest, DeadlineTripsAsDeadlineExceeded) {
  ExecContext ctx = ExecContext::WithTimeout(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // CheckDeadline polls unconditionally; CheckStep polls on the stride.
  Status trip = ctx.CheckDeadline();
  EXPECT_TRUE(trip.IsDeadlineExceeded()) << trip.ToString();
  EXPECT_TRUE(ctx.Snapshot().truncated);
}

TEST(ExecContextTest, DeadlineIsPolledOnStride) {
  ExecContext ctx = ExecContext::WithTimeout(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Within kPollStride steps the expired deadline must be noticed.
  Status last = Status::OK();
  for (size_t n = 0; n <= ExecContext::kPollStride && last.ok(); ++n) {
    last = ctx.CheckStep();
  }
  EXPECT_TRUE(last.IsDeadlineExceeded()) << last.ToString();
}

TEST(ExecContextTest, CancellationFromToken) {
  CancelToken token;
  ExecContext ctx(ExecLimits::Unlimited(), token);
  EXPECT_TRUE(ctx.CheckDeadline().ok());
  token.RequestCancel();
  Status trip = ctx.CheckDeadline();
  EXPECT_TRUE(trip.IsCancelled()) << trip.ToString();
}

TEST(ExecContextTest, CancelTokenCopiesShareTheFlag) {
  CancelToken token;
  CancelToken copy = token;
  copy.RequestCancel();
  EXPECT_TRUE(token.CancelRequested());
}

TEST(ExecContextTest, BulkStepChargeCountsAllUnits) {
  ExecContext ctx = ExecContext::WithStepBudget(10);
  EXPECT_TRUE(ctx.CheckStep(10).ok());
  EXPECT_TRUE(ctx.CheckStep(1).IsResourceExhausted());
  EXPECT_EQ(ctx.Snapshot().steps_expanded, 11u);
}

TEST(ExecContextTest, SnapshotReportsElapsedTime) {
  ExecContext ctx;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(ctx.Snapshot().elapsed_nanos, 0);
}

TEST(ExecContextTest, TripMessagesNameTheLimit) {
  ExecContext steps = ExecContext::WithStepBudget(0);
  EXPECT_NE(steps.CheckStep().message().find("step"), std::string::npos);
  ExecContext paths = ExecContext::WithPathBudget(0);
  EXPECT_NE(paths.ChargePaths().message().find("path"), std::string::npos);
  ExecContext bytes = ExecContext::WithByteBudget(0);
  EXPECT_NE(bytes.ChargeBytes(1).message().find("byte"), std::string::npos);
}

// --- RemainingLimits / ShardContext — the parallel fold's speculation
// --- budget plumbing.

TEST(ExecContextTest, RemainingLimitsReportsUnspentBudget) {
  ExecLimits limits;
  limits.max_steps = 10;
  limits.max_bytes = 100;
  ExecContext ctx(limits);
  EXPECT_TRUE(ctx.CheckStep(4).ok());
  EXPECT_TRUE(ctx.ChargeBytes(30).ok());
  ExecLimits remaining = ctx.RemainingLimits();
  EXPECT_EQ(*remaining.max_steps, 6u);
  EXPECT_EQ(*remaining.max_bytes, 70u);
  EXPECT_FALSE(remaining.max_paths.has_value());
  EXPECT_FALSE(remaining.timeout.has_value());
}

TEST(ExecContextTest, RemainingLimitsClampsOverspendToZero) {
  // CheckStep keeps its increment even on the tripping call, so "used"
  // can exceed the limit by the final bulk charge; the remainder must
  // clamp to zero, not wrap around.
  ExecContext ctx = ExecContext::WithStepBudget(5);
  EXPECT_TRUE(ctx.CheckStep(5).ok());
  EXPECT_FALSE(ctx.CheckStep(3).ok());
  EXPECT_EQ(*ctx.RemainingLimits().max_steps, 0u);
}

TEST(ExecContextTest, ShardContextSharesCancelToken) {
  CancelToken token;
  ExecContext parent(ExecLimits::Unlimited(), token);
  ExecContext shard =
      ExecContext::ShardContext(parent, parent.RemainingLimits());
  token.RequestCancel();
  EXPECT_TRUE(shard.CheckDeadline().IsCancelled());
}

TEST(ExecContextTest, ShardContextInheritsAbsoluteDeadline) {
  ExecLimits limits;
  limits.timeout = std::chrono::nanoseconds(1);
  ExecContext parent(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // A shard created AFTER the parent's deadline passed must observe it as
  // already expired — the deadline is absolute, not restarted.
  ExecContext shard =
      ExecContext::ShardContext(parent, parent.RemainingLimits());
  EXPECT_TRUE(shard.CheckDeadline().IsDeadlineExceeded());
}

}  // namespace
}  // namespace mrpa
