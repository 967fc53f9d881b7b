// Differential harness for the parallel traversal engine — the headline
// proof of PR 2. The contract under test (core/traversal.h): for countable
// budgets (steps / paths / bytes) and injected faults, TraverseParallelGoverned
// is BYTE-IDENTICAL to TraverseGoverned — same paths in the same canonical
// order, same truncation flag, same limit Status (code and message), same
// governance counters (elapsed time aside) — at every pool width.
//
// The harness drives randomized (graph, spec, budget regime, thread count)
// cases, seeded and reproducible. Case arithmetic for the main identity
// test alone: 6 seeds × 5 graph/spec draws × (up to 5 budget regimes +
// 2 fault injections) × 3 pool widths {1, 2, 8} ≈ 630 differential
// comparisons, comfortably past the 500-case bar.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "core/traversal.h"
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

// A random edge pattern. Seed steps (step 0) draw from the broad kinds so
// the seed frontier is large enough to cut into many shards; later steps
// use the full variety, including negated set constraints.
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
  // Mostly 2–3 steps (the parallel path needs ≥ 2); occasionally 1 to
  // exercise the sequential fallback, occasionally 4 for depth.
  size_t length = 2 + rng.Below(2);
  if (rng.Chance(0.1)) length = 1;
  if (rng.Chance(0.1)) length = 4;
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

// The observable outcome of one governed run, flattened for comparison.
struct Outcome {
  Status hard;  // Non-OK when the run returned an error Result.
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

Outcome RunSequential(const EdgeUniverse& universe, const TraversalSpec& spec,
                      const ExecLimits& limits,
                      obs::ObsRegistry* reg = nullptr) {
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  return FromResult(TraverseGoverned(universe, spec, ctx));
}

Outcome RunParallel(const EdgeUniverse& universe, const TraversalSpec& spec,
                    const ExecLimits& limits, ThreadPool& pool,
                    obs::ObsRegistry* reg = nullptr) {
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  ParallelTraversalOptions options;
  options.pool = &pool;
  options.shards_per_thread = 4;
  options.min_shard_size = 1;  // Force real sharding even on small seeds.
  return FromResult(TraverseParallelGoverned(universe, spec, ctx, options));
}

// Byte-identity: everything but wall-clock time must match.
void ExpectIdentical(const Outcome& seq, const Outcome& par) {
  ASSERT_EQ(seq.hard.ok(), par.hard.ok())
      << "seq: " << seq.hard << " par: " << par.hard;
  if (!seq.hard.ok()) {
    EXPECT_EQ(seq.hard, par.hard);
    return;
  }
  EXPECT_EQ(seq.truncated, par.truncated);
  EXPECT_EQ(seq.limit, par.limit)
      << "seq: " << seq.limit << " par: " << par.limit;
  ASSERT_EQ(seq.paths.size(), par.paths.size());
  EXPECT_EQ(seq.paths, par.paths);
  EXPECT_EQ(seq.stats.paths_yielded, par.stats.paths_yielded);
  EXPECT_EQ(seq.stats.steps_expanded, par.stats.steps_expanded);
  EXPECT_EQ(seq.stats.bytes_charged, par.stats.bytes_charged);
  EXPECT_EQ(seq.stats.truncated, par.stats.truncated);
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ParallelDifferentialTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> Pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

// The headline identity: random budgets drawn inside the observed cost of
// the unlimited run, so roughly every trip point — mid-seed, mid-level,
// final-level, post-run — gets exercised across the case population.
TEST_P(ParallelDifferentialTest, GovernedByteIdentity) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 17);
  for (int c = 0; c < 5; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 101 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    // Probe: the unlimited sequential run calibrates the budget draws.
    Outcome probe = RunSequential(graph, spec, ExecLimits::Unlimited());
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
      ExecLimits limits;  // Two dimensions racing each other.
      limits.max_steps = static_cast<size_t>(rng.Between(1, steps));
      limits.max_bytes = static_cast<size_t>(rng.Between(1, bytes));
      regimes.push_back(limits);
    }

    for (size_t r = 0; r < regimes.size(); ++r) {
      SCOPED_TRACE("regime " + std::to_string(r));
      Outcome seq = RunSequential(graph, spec, regimes[r]);
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
        ExpectIdentical(seq, RunParallel(graph, spec, regimes[r], *pool));
      }
      // Once more with live instrumentation: an attached ObsRegistry must
      // leave the governed outcome byte-identical on both engines.
      obs::ObsRegistry seq_reg;
      Outcome seq_obs = RunSequential(graph, spec, regimes[r], &seq_reg);
      {
        SCOPED_TRACE("sequential with ObsRegistry");
        ExpectIdentical(seq, seq_obs);
      }
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("obs-attached, threads " +
                     std::to_string(pool->num_threads()));
        obs::ObsRegistry par_reg;
        ExpectIdentical(seq,
                        RunParallel(graph, spec, regimes[r], *pool, &par_reg));
      }
    }

    // Injected faults: both runs arm the identical nth-probe fault; the
    // replay must consume the global injector's probe sequence exactly as
    // the sequential fold does (shard contexts never probe).
    if (steps > 0) {
      const uint64_t nth = rng.Between(1, steps);
      const Status injected = Status::Cancelled("injected budget fault");
      Outcome seq;
      {
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        seq = RunSequential(graph, spec, ExecLimits::Unlimited());
      }
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("budget fault, threads " +
                     std::to_string(pool->num_threads()));
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        ExpectIdentical(
            seq, RunParallel(graph, spec, ExecLimits::Unlimited(), *pool));
      }
      {
        // Instrumented fault path: the registry observes the trip without
        // perturbing it.
        SCOPED_TRACE("budget fault with ObsRegistry");
        obs::ObsRegistry reg;
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        ExpectIdentical(seq, RunSequential(graph, spec,
                                           ExecLimits::Unlimited(), &reg));
        // nth may overshoot the probe count (CheckStep batches), so the
        // fault fires iff the uninstrumented run tripped.
        EXPECT_EQ(reg.Value(obs::Metric::kExecTripsFault),
                  seq.truncated ? 1u : 0u);
      }
    }
    {
      const uint64_t nth = rng.Between(1, 12);
      const Status injected = Status::ResourceExhausted("injected alloc fault");
      Outcome seq;
      {
        ScopedFault fault(kFaultSiteAlloc, nth, injected);
        seq = RunSequential(graph, spec, ExecLimits::Unlimited());
      }
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("alloc fault, threads " +
                     std::to_string(pool->num_threads()));
        ScopedFault fault(kFaultSiteAlloc, nth, injected);
        ExpectIdentical(
            seq, RunParallel(graph, spec, ExecLimits::Unlimited(), *pool));
      }
    }
  }
}

TEST_P(ParallelDifferentialTest, UngovernedMatchesSequential) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 29);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 151 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());
    Result<PathSet> seq = Traverse(graph, spec);
    ASSERT_TRUE(seq.ok());
    for (ThreadPool* pool : Pools()) {
      ParallelTraversalOptions options;
      options.pool = pool;
      options.min_shard_size = 1;
      Result<PathSet> par = TraverseParallel(graph, spec, options);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(*seq, *par);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

}  // namespace
}  // namespace mrpa
