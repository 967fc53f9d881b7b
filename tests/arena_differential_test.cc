// Differential harness for the arena-native traversal engine — the
// correctness proof of the prefix-sharing PathArena rewrite. The contract
// under test (core/traversal.h): TraverseGoverned (arena-native) is
// BYTE-IDENTICAL to TraverseGovernedMaterialized (the retained pre-arena
// fold) — same paths in the same canonical order, same truncation flag,
// same limit Status, same governance counters (elapsed time aside) — for
// every countable budget regime and armed fault, and the parallel engine
// (per-shard arenas) matches both at pool widths 1/2/8.
//
// Alongside the randomized identity sweep, the suite cross-checks the other
// arena-native engines against the oracle where their languages coincide:
// the DFS iterator (StepPathIterator) and the backward chain evaluator.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "engine/path_iterator.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa {
namespace {

EdgePattern RandomPattern(Rng& rng, uint32_t num_vertices, uint32_t num_labels,
                          bool seed_step) {
  switch (seed_step ? rng.Below(3) : rng.Below(6)) {
    case 0:
      return EdgePattern::Any();
    case 1:
      return EdgePattern::Labeled(static_cast<LabelId>(rng.Below(num_labels)));
    case 2: {
      std::vector<VertexId> ids;
      const size_t n = 1 + rng.Below(3);
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(static_cast<VertexId>(rng.Below(num_vertices)));
      }
      return EdgePattern::IntoAnyOf(std::move(ids), /*negated=*/true);
    }
    case 3:
      return EdgePattern::From(static_cast<VertexId>(rng.Below(num_vertices)));
    case 4:
      return EdgePattern::Into(static_cast<VertexId>(rng.Below(num_vertices)));
    default: {
      std::vector<VertexId> ids;
      const size_t n = 1 + rng.Below(3);
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(static_cast<VertexId>(rng.Below(num_vertices)));
      }
      return EdgePattern::FromAnyOf(std::move(ids), rng.Chance(0.5));
    }
  }
}

std::vector<EdgePattern> RandomSteps(Rng& rng, uint32_t num_vertices,
                                     uint32_t num_labels) {
  // Skew deeper than the parallel harness: prefix sharing only bites at
  // depth ≥ 2, and depth 4–5 exercises multi-level arena frontiers.
  size_t length = 2 + rng.Below(3);
  if (rng.Chance(0.1)) length = 1;
  if (rng.Chance(0.1)) length = 5;
  std::vector<EdgePattern> steps;
  for (size_t k = 0; k < length; ++k) {
    steps.push_back(RandomPattern(rng, num_vertices, num_labels, k == 0));
  }
  return steps;
}

MultiRelationalGraph RandomGraph(Rng& rng, uint64_t seed) {
  switch (rng.Below(3)) {
    case 0: {
      ErdosRenyiParams params;
      params.num_vertices = 24;
      params.num_labels = 3;
      params.num_edges = 110;
      params.seed = seed;
      return GenerateErdosRenyi(params).value();
    }
    case 1: {
      BarabasiAlbertParams params;
      params.num_vertices = 30;
      params.num_labels = 3;
      params.edges_per_vertex = 2;
      params.seed = seed;
      return GenerateBarabasiAlbert(params).value();
    }
    default: {
      WattsStrogatzParams params;
      params.num_vertices = 28;
      params.num_labels = 2;
      params.neighbors_each_side = 2;
      params.rewire_prob = 0.2;
      params.seed = seed;
      return GenerateWattsStrogatz(params).value();
    }
  }
}

struct Outcome {
  Status hard;
  PathSet paths;
  bool truncated = false;
  Status limit;
  ExecStats stats;
};

Outcome FromResult(Result<GovernedPathSet> result) {
  Outcome out;
  if (!result.ok()) {
    out.hard = result.status();
    return out;
  }
  out.paths = std::move(result->paths);
  out.truncated = result->truncated;
  out.limit = result->limit;
  out.stats = result->stats;
  return out;
}

Outcome RunArena(const EdgeUniverse& universe, const TraversalSpec& spec,
                 const ExecLimits& limits, obs::ObsRegistry* reg = nullptr) {
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  return FromResult(TraverseGoverned(universe, spec, ctx));
}

Outcome RunMaterialized(const EdgeUniverse& universe,
                        const TraversalSpec& spec, const ExecLimits& limits) {
  ExecContext ctx(limits);
  return FromResult(TraverseGovernedMaterialized(universe, spec, ctx));
}

Outcome RunParallel(const EdgeUniverse& universe, const TraversalSpec& spec,
                    const ExecLimits& limits, ThreadPool& pool) {
  ExecContext ctx(limits);
  ParallelTraversalOptions options;
  options.pool = &pool;
  options.shards_per_thread = 4;
  options.min_shard_size = 1;
  return FromResult(TraverseParallelGoverned(universe, spec, ctx, options));
}

void ExpectIdentical(const Outcome& oracle, const Outcome& subject) {
  ASSERT_EQ(oracle.hard.ok(), subject.hard.ok())
      << "oracle: " << oracle.hard << " subject: " << subject.hard;
  if (!oracle.hard.ok()) {
    EXPECT_EQ(oracle.hard, subject.hard);
    return;
  }
  EXPECT_EQ(oracle.truncated, subject.truncated);
  EXPECT_EQ(oracle.limit, subject.limit)
      << "oracle: " << oracle.limit << " subject: " << subject.limit;
  ASSERT_EQ(oracle.paths.size(), subject.paths.size());
  EXPECT_EQ(oracle.paths, subject.paths);
  EXPECT_EQ(oracle.stats.paths_yielded, subject.stats.paths_yielded);
  EXPECT_EQ(oracle.stats.steps_expanded, subject.stats.steps_expanded);
  EXPECT_EQ(oracle.stats.bytes_charged, subject.stats.bytes_charged);
  EXPECT_EQ(oracle.stats.truncated, subject.stats.truncated);
}

class ArenaDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ArenaDifferentialTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> Pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

// The headline identity: arena vs materialized under randomized budget
// regimes calibrated from the unlimited probe, plus the parallel per-shard
// arenas at three pool widths against the same oracle.
TEST_P(ArenaDifferentialTest, ArenaMatchesMaterializedOracle) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 89);
  for (int c = 0; c < 5; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 251 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    Outcome probe = RunMaterialized(graph, spec, ExecLimits::Unlimited());
    ASSERT_TRUE(probe.hard.ok());
    ASSERT_FALSE(probe.truncated);
    const size_t steps = probe.stats.steps_expanded;
    const size_t paths = probe.stats.paths_yielded;
    const size_t bytes = probe.stats.bytes_charged;

    std::vector<ExecLimits> regimes;
    regimes.push_back(ExecLimits::Unlimited());
    if (steps > 0) {
      ExecLimits limits;
      limits.max_steps = static_cast<size_t>(rng.Between(1, steps));
      regimes.push_back(limits);
    }
    if (paths > 0) {
      ExecLimits limits;
      limits.max_paths = static_cast<size_t>(rng.Between(1, paths));
      regimes.push_back(limits);
    }
    if (bytes > 0) {
      ExecLimits limits;
      limits.max_bytes = static_cast<size_t>(rng.Between(1, bytes));
      regimes.push_back(limits);
    }
    if (steps > 0 && bytes > 0) {
      ExecLimits limits;
      limits.max_steps = static_cast<size_t>(rng.Between(1, steps));
      limits.max_bytes = static_cast<size_t>(rng.Between(1, bytes));
      regimes.push_back(limits);
    }

    for (size_t r = 0; r < regimes.size(); ++r) {
      SCOPED_TRACE("regime " + std::to_string(r));
      Outcome oracle = RunMaterialized(graph, spec, regimes[r]);
      ExpectIdentical(oracle, RunArena(graph, spec, regimes[r]));
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
        ExpectIdentical(oracle, RunParallel(graph, spec, regimes[r], *pool));
      }
      // Once more against the same oracle with an ObsRegistry attached:
      // live instrumentation must not move a single byte of the governed
      // outcome — the oracle itself stays un-instrumented, so this also
      // checks arena-vs-materialized identity across the obs boundary.
      {
        SCOPED_TRACE("arena with ObsRegistry");
        obs::ObsRegistry reg;
        ExpectIdentical(oracle, RunArena(graph, spec, regimes[r], &reg));
      }
    }

    // Armed faults: both folds make identical guard calls, so the nth
    // probe fires at the same point in both.
    if (steps > 0) {
      const uint64_t nth = rng.Between(1, steps);
      const Status injected = Status::Cancelled("injected budget fault");
      Outcome oracle;
      {
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        oracle = RunMaterialized(graph, spec, ExecLimits::Unlimited());
      }
      {
        SCOPED_TRACE("budget fault");
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        ExpectIdentical(oracle,
                        RunArena(graph, spec, ExecLimits::Unlimited()));
      }
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("budget fault, threads " +
                     std::to_string(pool->num_threads()));
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        ExpectIdentical(oracle, RunParallel(graph, spec,
                                            ExecLimits::Unlimited(), *pool));
      }
    }
    {
      const uint64_t nth = rng.Between(1, 12);
      const Status injected = Status::ResourceExhausted("injected alloc fault");
      Outcome oracle;
      {
        ScopedFault fault(kFaultSiteAlloc, nth, injected);
        oracle = RunMaterialized(graph, spec, ExecLimits::Unlimited());
      }
      {
        SCOPED_TRACE("alloc fault");
        ScopedFault fault(kFaultSiteAlloc, nth, injected);
        ExpectIdentical(oracle,
                        RunArena(graph, spec, ExecLimits::Unlimited()));
      }
    }
  }
}

// The DFS iterator shares the arena spine; its drain must equal the fold's
// language, and a path-budgeted drain must yield the same canonical prefix
// the governed fold reports.
TEST_P(ArenaDifferentialTest, IteratorDrainMatchesOracle) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 103);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 281 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    Outcome oracle = RunMaterialized(graph, spec, ExecLimits::Unlimited());
    ASSERT_TRUE(oracle.hard.ok());

    StepPathIterator it(graph, spec.steps);
    EXPECT_EQ(DrainToPathSet(it), oracle.paths);
    EXPECT_FALSE(it.truncated());

    if (oracle.stats.paths_yielded > 1) {
      const size_t k =
          static_cast<size_t>(rng.Between(1, oracle.stats.paths_yielded - 1));
      ExecLimits limits;
      limits.max_paths = k;
      ExecContext ctx(limits);
      StepPathIterator governed(graph, spec.steps, &ctx);
      PathSet prefix = DrainToPathSet(governed);
      EXPECT_TRUE(governed.truncated());
      ASSERT_EQ(prefix.size(), k);
      for (size_t i = 0; i < k; ++i) EXPECT_EQ(prefix[i], oracle.paths[i]);
    }
  }
}

// The backward evaluator (suffix-chained arena) denotes the same language
// as the forward fold; its governed trips must report honest metadata.
TEST_P(ArenaDifferentialTest, BackwardEvaluationMatchesForward) {
  Rng rng(GetParam() * 0xda942042e4dd58b5ULL + 109);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 291 + c + 1);
    std::vector<EdgePattern> steps =
        RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    ExecContext forward_ctx;
    Result<GovernedPathSet> forward = EvaluateChainGoverned(
        graph, steps, ChainDirection::kForward, forward_ctx);
    ASSERT_TRUE(forward.ok());
    ASSERT_FALSE(forward->truncated);

    ExecContext backward_ctx;
    Result<GovernedPathSet> backward = EvaluateChainGoverned(
        graph, steps, ChainDirection::kBackward, backward_ctx);
    ASSERT_TRUE(backward.ok());
    ASSERT_FALSE(backward->truncated);
    EXPECT_EQ(forward->paths, backward->paths);

    // A budgeted backward run returns a truncated subset with the trip
    // recorded (iteration order differs from forward, so only set-level
    // containment is contractual).
    const size_t steps_spent = backward_ctx.Snapshot().steps_expanded;
    if (steps_spent > 1) {
      ExecLimits limits;
      limits.max_steps = static_cast<size_t>(rng.Between(1, steps_spent - 1));
      ExecContext ctx(limits);
      Result<GovernedPathSet> budgeted = EvaluateChainGoverned(
          graph, steps, ChainDirection::kBackward, ctx);
      ASSERT_TRUE(budgeted.ok());
      EXPECT_TRUE(budgeted->truncated);
      EXPECT_FALSE(budgeted->limit.ok());
      EXPECT_TRUE(budgeted->paths.IsSubsetOf(forward->paths));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaDifferentialTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

}  // namespace
}  // namespace mrpa
