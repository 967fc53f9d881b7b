// Differential harness for the dense-frontier execution strategy — the
// byte-identity proof of the adaptive sparse/dense switch (DESIGN.md
// "Dense-frontier execution").
//
// The contract under test: the DensityPolicy mode is PURE STRATEGY. For
// every governed traversal, forced-dense, forced-sparse, and auto produce
// the identical result — same paths in the same canonical order, same
// truncation flag, same limit Status, same counters (elapsed time aside) —
// under every budget regime and armed fault, against the materialized
// oracle (TraverseGovernedMaterialized, which has no dense machinery at
// all). The sweep runs on BOTH kernel dispatch tiers (the CPU's best and
// forced-scalar via ForceTierForTesting), at pool widths 1/2/8 for the
// parallel engine, and covers the backward chain evaluator's dense replay
// and the §IV-C projection reachability fast path.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "frontier/kernels.h"
#include "frontier/policy.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "graph/projection.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa {
namespace {

using frontier::DensityMode;
using frontier::DensityPolicy;
using frontier::SimdTier;

DensityPolicy Forced(DensityMode mode) {
  DensityPolicy policy;
  policy.mode = mode;
  return policy;
}

// Auto mode with thresholds low enough that the small property graphs
// actually cross them — the stock defaults would keep every level sparse
// at this scale and test nothing.
DensityPolicy EagerAuto() {
  DensityPolicy policy;
  policy.min_frontier_paths = 4;
  policy.min_reuse = 1.0;
  policy.min_fill = 1.0 / 256.0;
  return policy;
}

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
    case 4: {
      std::vector<LabelId> labels;
      const size_t n = 1 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) {
        labels.push_back(static_cast<LabelId>(rng.Below(num_labels)));
      }
      return EdgePattern::LabeledAnyOf(std::move(labels), rng.Chance(0.3));
    }
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

Outcome RunMaterialized(const EdgeUniverse& universe,
                        const TraversalSpec& spec, const ExecLimits& limits) {
  ExecContext ctx(limits);
  return FromResult(TraverseGovernedMaterialized(universe, spec, ctx));
}

Outcome RunWithPolicy(const EdgeUniverse& universe, TraversalSpec spec,
                      const DensityPolicy& policy, const ExecLimits& limits,
                      obs::ObsRegistry* reg = nullptr) {
  spec.density = policy;
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  return FromResult(TraverseGoverned(universe, spec, ctx));
}

Outcome RunParallelWithPolicy(const EdgeUniverse& universe, TraversalSpec spec,
                              const DensityPolicy& policy,
                              const ExecLimits& limits, ThreadPool& pool) {
  spec.density = policy;
  ExecContext ctx(limits);
  ParallelTraversalOptions options;
  options.pool = &pool;
  options.shards_per_thread = 4;
  options.min_shard_size = 1;
  return FromResult(TraverseParallelGoverned(universe, spec, ctx, options));
}

Outcome RunBackward(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps,
                    const DensityPolicy& policy, const ExecLimits& limits) {
  ExecContext ctx(limits);
  return FromResult(EvaluateChainGoverned(universe, steps,
                                          ChainDirection::kBackward, ctx,
                                          policy));
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

// Every subject runs once per dispatch tier: the CPU's best and forced
// scalar. An RAII pin keeps a test failure from leaking the forced tier.
class ScopedTier {
 public:
  explicit ScopedTier(std::optional<SimdTier> tier) {
    frontier::ForceTierForTesting(tier);
  }
  ~ScopedTier() { frontier::ForceTierForTesting(std::nullopt); }
};

std::vector<std::optional<SimdTier>> DispatchTiers() {
  std::vector<std::optional<SimdTier>> tiers = {std::nullopt};
  if (frontier::HighestCompiledTier() != SimdTier::kScalar) {
    tiers.push_back(SimdTier::kScalar);
  }
  return tiers;
}

std::string TierTrace(const std::optional<SimdTier>& tier) {
  return tier.has_value()
             ? "tier " + std::string(frontier::TierName(*tier))
             : "tier native";
}

class FrontierDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  FrontierDifferentialTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> Pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

// The headline identity: forced-dense / eager-auto / forced-sparse vs the
// materialized oracle, across budget regimes calibrated from the unlimited
// probe, on both dispatch tiers, sequential and parallel.
TEST_P(FrontierDifferentialTest, DensityModeIsPureStrategy) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 211);
  const DensityPolicy policies[] = {Forced(DensityMode::kForceSparse),
                                    Forced(DensityMode::kForceDense),
                                    EagerAuto()};
  for (int c = 0; c < 3; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 331 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    Outcome probe = RunMaterialized(graph, spec, ExecLimits::Unlimited());
    ASSERT_TRUE(probe.hard.ok());
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

    for (const std::optional<SimdTier>& tier : DispatchTiers()) {
      SCOPED_TRACE(TierTrace(tier));
      ScopedTier pin(tier);
      for (size_t r = 0; r < regimes.size(); ++r) {
        SCOPED_TRACE("regime " + std::to_string(r));
        Outcome oracle = RunMaterialized(graph, spec, regimes[r]);
        for (const DensityPolicy& policy : policies) {
          SCOPED_TRACE("mode " +
                       std::to_string(static_cast<int>(policy.mode)));
          ExpectIdentical(oracle,
                          RunWithPolicy(graph, spec, policy, regimes[r]));
          for (ThreadPool* pool : Pools()) {
            SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
            ExpectIdentical(oracle, RunParallelWithPolicy(graph, spec, policy,
                                                          regimes[r], *pool));
          }
        }
        // Forced-dense with live instrumentation: the obs boundary must not
        // move a byte either, and dense levels must actually be counted
        // (the proof this suite exercises the dense code at all).
        {
          SCOPED_TRACE("forced dense with ObsRegistry");
          obs::ObsRegistry reg;
          ExpectIdentical(oracle,
                          RunWithPolicy(graph, spec,
                                        Forced(DensityMode::kForceDense),
                                        regimes[r], &reg));
          if (spec.steps.size() > 1 && !oracle.truncated) {
            EXPECT_EQ(reg.Value(obs::Metric::kFrontierSparseLevels), 0u);
          }
        }
      }

      // Armed faults: the dense replay preserves the guard-call sequence,
      // so the nth probe fires at the same point in every mode.
      if (steps > 0) {
        const uint64_t nth = rng.Between(1, steps);
        const Status injected = Status::Cancelled("injected budget fault");
        Outcome oracle;
        {
          ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
          oracle = RunMaterialized(graph, spec, ExecLimits::Unlimited());
        }
        for (const DensityPolicy& policy : policies) {
          SCOPED_TRACE("budget fault, mode " +
                       std::to_string(static_cast<int>(policy.mode)));
          ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
          ExpectIdentical(oracle, RunWithPolicy(graph, spec, policy,
                                                ExecLimits::Unlimited()));
        }
      }
      {
        const uint64_t nth = rng.Between(1, 12);
        const Status injected =
            Status::ResourceExhausted("injected alloc fault");
        Outcome oracle;
        {
          ScopedFault fault(kFaultSiteAlloc, nth, injected);
          oracle = RunMaterialized(graph, spec, ExecLimits::Unlimited());
        }
        for (const DensityPolicy& policy : policies) {
          SCOPED_TRACE("alloc fault, mode " +
                       std::to_string(static_cast<int>(policy.mode)));
          ScopedFault fault(kFaultSiteAlloc, nth, injected);
          ExpectIdentical(oracle, RunWithPolicy(graph, spec, policy,
                                                ExecLimits::Unlimited()));
        }
      }
    }
  }
}

// The backward chain evaluator's dense replay: forced-dense vs
// forced-sparse vs each other under budgets and faults. The sparse backward
// walk is its own oracle — it predates the dense machinery byte-for-byte.
TEST_P(FrontierDifferentialTest, BackwardEvaluatorAgreesAcrossModes) {
  Rng rng(GetParam() * 0xda942042e4dd58b5ULL + 227);
  for (int c = 0; c < 3; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 367 + c + 1);
    std::vector<EdgePattern> steps =
        RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    Outcome probe = RunBackward(graph, steps,
                                Forced(DensityMode::kForceSparse),
                                ExecLimits::Unlimited());
    ASSERT_TRUE(probe.hard.ok());
    const size_t budget_steps = probe.stats.steps_expanded;

    std::vector<ExecLimits> regimes;
    regimes.push_back(ExecLimits::Unlimited());
    if (budget_steps > 0) {
      ExecLimits limits;
      limits.max_steps = static_cast<size_t>(rng.Between(1, budget_steps));
      regimes.push_back(limits);
    }
    if (probe.stats.paths_yielded > 0) {
      ExecLimits limits;
      limits.max_paths =
          static_cast<size_t>(rng.Between(1, probe.stats.paths_yielded));
      regimes.push_back(limits);
    }

    for (const std::optional<SimdTier>& tier : DispatchTiers()) {
      SCOPED_TRACE(TierTrace(tier));
      ScopedTier pin(tier);
      for (size_t r = 0; r < regimes.size(); ++r) {
        SCOPED_TRACE("regime " + std::to_string(r));
        Outcome oracle = RunBackward(graph, steps,
                                     Forced(DensityMode::kForceSparse),
                                     regimes[r]);
        ExpectIdentical(oracle,
                        RunBackward(graph, steps,
                                    Forced(DensityMode::kForceDense),
                                    regimes[r]));
        ExpectIdentical(oracle,
                        RunBackward(graph, steps, EagerAuto(), regimes[r]));
      }
      if (budget_steps > 0) {
        const uint64_t nth = rng.Between(1, budget_steps);
        const Status injected = Status::Cancelled("injected backward fault");
        Outcome oracle;
        {
          ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
          oracle = RunBackward(graph, steps,
                               Forced(DensityMode::kForceSparse),
                               ExecLimits::Unlimited());
        }
        SCOPED_TRACE("backward budget fault");
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        ExpectIdentical(oracle,
                        RunBackward(graph, steps,
                                    Forced(DensityMode::kForceDense),
                                    ExecLimits::Unlimited()));
      }
    }
  }
}

// The §IV-C projection fast path: reachability-only derivation vs the
// enumeration route, which the fast path must match arc-for-arc (FromArcs
// canonicalizes both). An armed injector must disable the fast path — the
// enumeration route's deterministic probe sequence is part of the governed
// surface.
TEST_P(FrontierDifferentialTest, ProjectionFastPathMatchesEnumeration) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 229);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 379 + c + 1);
    const size_t length = 1 + rng.Below(3);
    std::vector<LabelId> labels;
    for (size_t i = 0; i < length; ++i) {
      labels.push_back(static_cast<LabelId>(rng.Below(graph.num_labels())));
    }

    // The enumeration route, assembled by hand (exactly what the fallback
    // inside DeriveLabelSequenceRelation runs).
    std::vector<std::vector<LabelId>> steps;
    for (LabelId l : labels) steps.push_back({l});
    Result<PathSet> paths = LabeledTraversal(graph, steps);
    ASSERT_TRUE(paths.ok());
    const BinaryGraph oracle =
        ProjectPaths(paths.value(), graph.num_vertices());

    for (const std::optional<SimdTier>& tier : DispatchTiers()) {
      SCOPED_TRACE(TierTrace(tier));
      ScopedTier pin(tier);
      Result<BinaryGraph> fast = DeriveLabelSequenceRelation(graph, labels);
      ASSERT_TRUE(fast.ok());
      EXPECT_EQ(fast.value(), oracle);
    }

    // Armed injector → fall back to the enumeration route and surface
    // whatever it surfaces (the fault, for any sequence that probes at
    // least once) exactly as the pre-fast-path code did.
    {
      const Status injected = Status::Cancelled("injected projection fault");
      bool enumeration_ok;
      {
        ScopedFault fault(kFaultSiteBudgetCheck, 1, injected);
        enumeration_ok = LabeledTraversal(graph, steps).ok();
      }
      ScopedFault fault(kFaultSiteBudgetCheck, 1, injected);
      Result<BinaryGraph> faulted = DeriveLabelSequenceRelation(graph, labels);
      EXPECT_EQ(faulted.ok(), enumeration_ok);
      if (!faulted.ok()) {
        EXPECT_EQ(faulted.status(), injected);
      } else {
        EXPECT_EQ(faulted.value(), oracle);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierDifferentialTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

}  // namespace
}  // namespace mrpa
