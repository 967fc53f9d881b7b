// The count fold (CountChainGoverned) against its definition: enumerate the
// chain with EvaluateChainGoverned under the same budgets, then reduce.
//
// The differential runs random Erdős–Rényi graphs and hub-heavy
// Barabási–Albert graphs against random 0–5-step chains with set-valued and
// negated constraints, in both directions. Budget regimes come from an
// unlimited probe of the chain: steps, paths and bytes each at 0, 1, half,
// total − 1 and total, plus the combined max_paths + max_steps quota of
// net_chaos_test's free tier. Every comparison asserts the count, exists,
// the truncation flag, the limit Status and the ExecStats counters.
//
// The rest pins what has no enumeration to compare with: the ε chain,
// injected faults, cancellation and deadlines, and counts beyond 2^64.

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/traversal.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"

namespace mrpa {
namespace {

constexpr ChainDirection kDirections[] = {ChainDirection::kForward,
                                          ChainDirection::kBackward};

// A vertex or label constraint: mostly unconstrained, else a single id or
// a set (a third of the sets negated) — constraining every position would
// leave most chains empty.
IdConstraint RandomConstraint(Rng& rng, uint32_t size) {
  switch (rng.Below(5)) {
    case 0:
    case 1:
    case 2:
      return IdConstraint();
    case 3:
      return IdConstraint::Exactly(static_cast<uint32_t>(rng.Below(size)));
    default: {
      std::vector<uint32_t> ids;
      for (uint64_t i = 0, n = 1 + rng.Below(size); i < n; ++i) {
        ids.push_back(static_cast<uint32_t>(rng.Below(size)));
      }
      return IdConstraint(std::move(ids), /*negated=*/rng.Below(3) == 0);
    }
  }
}

std::vector<EdgePattern> RandomChain(Rng& rng, const MultiRelationalGraph& g) {
  std::vector<EdgePattern> steps;
  for (uint64_t k = 0, n = rng.Below(6); k < n; ++k) {
    steps.emplace_back(RandomConstraint(rng, g.num_vertices()),
                       RandomConstraint(rng, g.num_labels()),
                       RandomConstraint(rng, g.num_vertices()));
  }
  return steps;
}

// Small graphs keep full enumeration of 5-step chains cheap; the BA graphs
// give a few vertices most of the in-edges, so backward runs fan out and
// forward runs converge on hubs (multiplicities above 1). Every fourth
// graph is a sparse ER graph past 256 vertices, so sorting a level's run
// by vertex takes more than one radix pass.
MultiRelationalGraph RandomGraph(Rng& rng, size_t index, uint64_t seed) {
  if (index % 4 == 3) {
    const uint32_t n = static_cast<uint32_t>(300 + rng.Below(700));
    return GenerateErdosRenyi({.num_vertices = n,
                               .num_labels = 2,
                               .num_edges = static_cast<size_t>(n) * 2,
                               .seed = seed * 131 + index})
        .value();
  }
  if (index % 2 == 0) {
    const uint32_t n = static_cast<uint32_t>(8 + rng.Below(25));
    return GenerateErdosRenyi(
               {.num_vertices = n,
                .num_labels = static_cast<uint32_t>(1 + rng.Below(3)),
                .num_edges = static_cast<size_t>(n) * (2 + rng.Below(3)),
                .seed = seed * 131 + index})
        .value();
  }
  return GenerateBarabasiAlbert(
             {.num_vertices = static_cast<uint32_t>(10 + rng.Below(30)),
              .num_labels = static_cast<uint32_t>(1 + rng.Below(3)),
              .edges_per_vertex = static_cast<uint32_t>(1 + rng.Below(2)),
              .seed = seed * 131 + index})
      .value();
}

// The regimes of one chain, derived from its unlimited charges.
std::vector<ExecLimits> BudgetRegimes(const ExecStats& total) {
  std::vector<ExecLimits> regimes(1);  // Unlimited.
  auto points = [](size_t n) {
    return std::vector<size_t>{0, 1, n / 2, n > 0 ? n - 1 : 0, n};
  };
  for (size_t v : points(total.steps_expanded)) {
    regimes.emplace_back().max_steps = v;
  }
  for (size_t v : points(total.paths_yielded)) {
    regimes.emplace_back().max_paths = v;
  }
  for (size_t v : points(total.bytes_charged)) {
    regimes.emplace_back().max_bytes = v;
  }
  ExecLimits free_tier;
  free_tier.max_paths = 10;
  free_tier.max_steps = 60;
  regimes.push_back(free_tier);
  return regimes;
}

// Enumerate-then-reduce, the count fold's definition.
GovernedCount Reduced(const EdgeUniverse& g,
                      const std::vector<EdgePattern>& steps,
                      ChainDirection direction, const ExecLimits& limits) {
  ExecContext ctx(limits);
  Result<GovernedPathSet> enumerated =
      EvaluateChainGoverned(g, steps, direction, ctx);
  EXPECT_TRUE(enumerated.ok()) << enumerated.status();
  GovernedCount out;
  out.count = enumerated->paths.size();
  out.truncated = enumerated->truncated;
  out.limit = enumerated->limit;
  out.stats = enumerated->stats;
  return out;
}

GovernedCount Counted(const EdgeUniverse& g,
                      const std::vector<EdgePattern>& steps,
                      ChainDirection direction, ExecContext& ctx) {
  Result<GovernedCount> counted = CountChainGoverned(g, steps, direction, ctx);
  EXPECT_TRUE(counted.ok()) << counted.status();
  return counted.ok() ? std::move(*counted) : GovernedCount{};
}

GovernedCount Counted(const EdgeUniverse& g,
                      const std::vector<EdgePattern>& steps,
                      ChainDirection direction, const ExecLimits& limits) {
  ExecContext ctx(limits);
  return Counted(g, steps, direction, ctx);
}

void ExpectSameAnswer(const GovernedCount& got, const GovernedCount& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.count > 0, want.count > 0);  // exists
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.limit, want.limit);
  EXPECT_EQ(got.stats.paths_yielded, want.stats.paths_yielded);
  EXPECT_EQ(got.stats.steps_expanded, want.stats.steps_expanded);
  EXPECT_EQ(got.stats.bytes_charged, want.stats.bytes_charged);
  EXPECT_EQ(got.stats.truncated, want.stats.truncated);
}

class CountFoldDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountFoldDifferentialTest, EqualsEnumerateThenReduce) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  size_t comparisons = 0;
  size_t truncated = 0;
  size_t counted_past_one = 0;
  for (size_t graph_index = 0; graph_index < 8; ++graph_index) {
    const MultiRelationalGraph g = RandomGraph(rng, graph_index, seed);
    for (size_t chain_index = 0; chain_index < 6; ++chain_index) {
      const std::vector<EdgePattern> steps = RandomChain(rng, g);
      for (ChainDirection direction : kDirections) {
        const GovernedCount probe = Reduced(g, steps, direction, {});
        ASSERT_FALSE(probe.truncated);
        for (const ExecLimits& limits : BudgetRegimes(probe.stats)) {
          SCOPED_TRACE("graph " + std::to_string(graph_index) + " chain " +
                       std::to_string(chain_index) + " direction " +
                       std::to_string(static_cast<int>(direction)) +
                       " steps " + std::to_string(steps.size()));
          const GovernedCount want = Reduced(g, steps, direction, limits);
          ExpectSameAnswer(Counted(g, steps, direction, limits), want);
          ++comparisons;
          truncated += want.truncated ? 1 : 0;
          counted_past_one += !want.truncated && want.count > 1 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GE(comparisons, 500u);
  // Both outcomes are covered: complete counts the fold charged itself,
  // and truncated ones from the enumerating fallback.
  EXPECT_GE(counted_past_one, 50u);
  EXPECT_GE(truncated, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountFoldDifferentialTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

TEST(CountFoldTest, EpsilonChainCountsOnePath) {
  const MultiRelationalGraph g =
      GenerateErdosRenyi({.num_vertices = 5, .num_edges = 8}).value();
  for (ChainDirection direction : kDirections) {
    ExecContext ctx;
    const GovernedCount counted = Counted(g, {}, direction, ctx);
    EXPECT_EQ(counted.count, 1u);
    EXPECT_FALSE(counted.truncated);
    EXPECT_EQ(counted.stats.paths_yielded, 1u);
    ExecLimits none;
    none.max_paths = 0;
    ExpectSameAnswer(Counted(g, {}, direction, none),
                     Reduced(g, {}, direction, none));
  }
}

struct FaultCase {
  std::string_view site;
  Status injected;
};

// The 3-step chain of every edge over a small ER graph: every level has
// chains, so every guard site is reached.
TEST(CountFoldTest, InjectedFaultTruncatesWithTheInjectedStatus) {
  const MultiRelationalGraph g =
      GenerateErdosRenyi({.num_vertices = 12, .num_labels = 2,
                          .num_edges = 40, .seed = 5})
          .value();
  const std::vector<EdgePattern> steps(3, EdgePattern::Any());
  for (const FaultCase& fault :
       {FaultCase{kFaultSiteBudgetCheck, Status::IOError("budget flake")},
        FaultCase{kFaultSiteAlloc, Status::ResourceExhausted("alloc fault")}}) {
    for (ChainDirection direction : kDirections) {
      ScopedFault armed(fault.site, /*nth=*/1, fault.injected);
      ExecContext ctx;
      const GovernedCount counted = Counted(g, steps, direction, ctx);
      EXPECT_TRUE(counted.truncated);
      EXPECT_EQ(counted.limit, fault.injected);
      EXPECT_EQ(counted.count, 0u);
      EXPECT_TRUE(counted.stats.truncated);
      EXPECT_EQ(counted.stats.paths_yielded, 0u);
    }
  }
}

TEST(CountFoldTest, CancelledAndExpiredRunsCountNothing) {
  const MultiRelationalGraph g =
      GenerateErdosRenyi({.num_vertices = 12, .num_labels = 2,
                          .num_edges = 40, .seed = 5})
          .value();
  const std::vector<EdgePattern> steps(3, EdgePattern::Any());
  for (ChainDirection direction : kDirections) {
    CancelToken token;
    token.RequestCancel();
    ExecContext cancelled(ExecLimits{}, token);
    const GovernedCount a = Counted(g, steps, direction, cancelled);
    EXPECT_TRUE(a.truncated);
    EXPECT_TRUE(a.limit.IsCancelled()) << a.limit;
    EXPECT_EQ(a.count, 0u);
    EXPECT_EQ(a.stats.steps_expanded, 0u);

    ExecContext expired =
        ExecContext::WithTimeout(std::chrono::nanoseconds(0));
    const GovernedCount b = Counted(g, steps, direction, expired);
    EXPECT_TRUE(b.truncated);
    EXPECT_TRUE(b.limit.IsDeadlineExceeded()) << b.limit;
    EXPECT_EQ(b.count, 0u);
    EXPECT_EQ(b.stats.steps_expanded, 0u);
  }
}

// The complete multigraph on 4 vertices and 4 labels: 64 edges, every
// vertex with 16 out- and in-edges, so an n-step chain of E denotes
// 64 · 16^(n-1) = 2^(4n+2) paths.
MultiRelationalGraph CompleteMultigraph() {
  MultiGraphBuilder b;
  b.ReserveVertices(4);
  b.ReserveLabels(4);
  for (VertexId t = 0; t < 4; ++t) {
    for (LabelId l = 0; l < 4; ++l) {
      for (VertexId h = 0; h < 4; ++h) b.AddEdge(t, l, h);
    }
  }
  return b.Build();
}

TEST(CountFoldTest, CountsWhatCannotBeEnumerated) {
  const MultiRelationalGraph g = CompleteMultigraph();
  const std::vector<EdgePattern> steps(12, EdgePattern::Any());
  for (ChainDirection direction : kDirections) {
    ExecContext ctx;
    const GovernedCount counted = Counted(g, steps, direction, ctx);
    EXPECT_FALSE(counted.truncated);
    EXPECT_EQ(counted.count, uint64_t{1} << 50);
    EXPECT_EQ(counted.stats.paths_yielded, uint64_t{1} << 50);
    // Seeds, then per level one step per chain plus one per extension.
    uint64_t steps_expanded = 64;
    for (int k = 1; k < 12; ++k) {
      steps_expanded += (uint64_t{1} << (4 * k + 2)) * 17;
    }
    EXPECT_EQ(counted.stats.steps_expanded, steps_expanded);
  }
}

TEST(CountFoldTest, CountBeyondTwoToTheSixtyFourSaturatesNeverWraps) {
  const MultiRelationalGraph g = CompleteMultigraph();
  const std::vector<EdgePattern> steps(17, EdgePattern::Any());  // 2^70.
  for (ChainDirection direction : kDirections) {
    ExecContext ctx;
    const GovernedCount counted = Counted(g, steps, direction, ctx);
    EXPECT_EQ(counted.count, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(counted.truncated);
    EXPECT_TRUE(counted.limit.IsResourceExhausted()) << counted.limit;
    EXPECT_TRUE(counted.stats.truncated);
    EXPECT_EQ(counted.stats.steps_expanded, 0u);  // Nothing was charged.

    // Under a finite budget the fold returns enumeration's exact trip.
    ExecLimits steps_budget;
    steps_budget.max_steps = 10'000;
    ExecLimits bytes_budget;
    bytes_budget.max_bytes = 50'000;
    for (const ExecLimits& limits : {steps_budget, bytes_budget}) {
      const GovernedCount want = Reduced(g, steps, direction, limits);
      ASSERT_TRUE(want.truncated);
      ExpectSameAnswer(Counted(g, steps, direction, limits), want);
    }
  }
}

}  // namespace
}  // namespace mrpa
