// Conservation-law lockdown for the observability layer (the enforcement
// arm of the obs subsystem): every counter the engines report must equal a
// quantity the governance layer actually charged, so instrumentation can
// never drift from the accounting it mirrors. The laws under test:
//
//   1. paths_emitted == |result| == Σ per-shard slot counters;
//   2. bytes_charged == nodes_allocated * PathArena::kNodeBytes on
//      untruncated arena-engine runs;
//   3. span durations nest — every child's [start, end] window lies inside
//      its parent's, and no span is left open after an evaluation returns;
//   4. counters are identical between TraverseGoverned and
//      TraverseParallelGoverned at pool widths 1/2/8, across randomized
//      graphs, budget regimes, and injected faults (speculation-only
//      parallel.* metrics excepted — they have no sequential counterpart);
//   5. the count fold's exec.* counters equal the stats it returns, in
//      both directions, whether it answers, enumerates or gives up.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_arena.h"
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

EdgePattern RandomPattern(Rng& rng, uint32_t num_vertices, uint32_t num_labels,
                          bool seed_step) {
  switch (seed_step ? rng.Below(3) : rng.Below(5)) {
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
    default:
      return EdgePattern::Into(static_cast<VertexId>(rng.Below(num_vertices)));
  }
}

std::vector<EdgePattern> RandomSteps(Rng& rng, uint32_t num_vertices,
                                     uint32_t num_labels) {
  size_t length = 2 + rng.Below(2);
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

// Law 1's slot half: a counter's Value must equal the sum of its per-slot
// breakdown, for every metric.
void ExpectSlotConservation(const obs::ObsRegistry& reg) {
  for (uint32_t m = 0; m < static_cast<uint32_t>(obs::Metric::kCount); ++m) {
    const obs::Metric metric = static_cast<obs::Metric>(m);
    uint64_t slot_sum = 0;
    for (size_t s = 0; s < obs::ObsRegistry::kShardSlots; ++s) {
      slot_sum += reg.ValueForSlot(metric, s);
    }
    EXPECT_EQ(reg.Value(metric), slot_sum) << obs::MetricName(metric);
  }
}

// Law 3: no span outlives the evaluation, and children nest inside their
// parents in time.
void ExpectSpansNest(const obs::ObsRegistry& reg) {
  const std::vector<obs::SpanRecord> spans = reg.Spans();
  EXPECT_EQ(reg.spans_dropped(), 0u);
  std::unordered_map<obs::SpanId, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name << " left open or inverted";
    by_id[s.id] = &s;
  }
  for (const obs::SpanRecord& s : spans) {
    if (s.parent == obs::kNoSpan) continue;
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << s.name << " has an unknown parent";
    const obs::SpanRecord& parent = *it->second;
    EXPECT_LE(parent.start_ns, s.start_ns)
        << s.name << " starts before its parent " << parent.name;
    EXPECT_LE(s.end_ns, parent.end_ns)
        << s.name << " ends after its parent " << parent.name;
  }
}

// Law 4: every counter equal, strategy-only metrics aside — the
// speculation parallel.* pair, plus the frontier.* dense-strategy
// telemetry (each parallel shard makes its own sparse/dense choice over
// its slice of the frontier, so the counts legitimately differ from the
// sequential run's while the governed output stays byte-identical).
void ExpectCountersIdentical(const obs::ObsRegistry& seq,
                             const obs::ObsRegistry& par) {
  for (uint32_t m = 0; m < static_cast<uint32_t>(obs::Metric::kCount); ++m) {
    const obs::Metric metric = static_cast<obs::Metric>(m);
    if (metric == obs::Metric::kParallelShards ||
        metric == obs::Metric::kParallelSpeculativeNodes ||
        metric == obs::Metric::kFrontierDenseLevels ||
        metric == obs::Metric::kFrontierSparseLevels ||
        metric == obs::Metric::kFrontierWordsScanned) {
      continue;
    }
    EXPECT_EQ(seq.Value(metric), par.Value(metric)) << obs::MetricName(metric);
  }
}

Result<GovernedPathSet> RunSequential(const EdgeUniverse& universe,
                                      const TraversalSpec& spec,
                                      const ExecLimits& limits,
                                      obs::ObsRegistry* reg) {
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  return TraverseGoverned(universe, spec, ctx);
}

Result<GovernedPathSet> RunParallel(const EdgeUniverse& universe,
                                    const TraversalSpec& spec,
                                    const ExecLimits& limits, ThreadPool& pool,
                                    obs::ObsRegistry* reg) {
  ExecContext ctx(limits);
  ctx.AttachObs(reg);
  ParallelTraversalOptions options;
  options.pool = &pool;
  options.shards_per_thread = 4;
  options.min_shard_size = 1;
  return TraverseParallelGoverned(universe, spec, ctx, options);
}

class ObsInvariantsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ObsInvariantsTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> Pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

// Laws 1–3 on the sequential fold: the counters reconcile exactly with the
// governed result and the arena cost model.
TEST_P(ObsInvariantsTest, SequentialConservation) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 311);
  for (int c = 0; c < 5; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 331 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    obs::ObsRegistry reg;
    Result<GovernedPathSet> result =
        RunSequential(graph, spec, ExecLimits::Unlimited(), &reg);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->truncated);

    EXPECT_EQ(reg.Value(obs::Metric::kTraversalRuns), 1u);
    EXPECT_EQ(reg.Value(obs::Metric::kTraversalPathsEmitted),
              result->paths.size());
    EXPECT_EQ(reg.Value(obs::Metric::kExecPathsYielded),
              result->stats.paths_yielded);
    EXPECT_EQ(reg.Value(obs::Metric::kExecStepsExpanded),
              result->stats.steps_expanded);
    EXPECT_EQ(reg.Value(obs::Metric::kExecBytesCharged),
              result->stats.bytes_charged);
    // Law 2: on an untruncated run every charged byte is an arena node.
    EXPECT_EQ(reg.Value(obs::Metric::kExecBytesCharged),
              reg.Value(obs::Metric::kArenaNodesAllocated) *
                  PathArena::kNodeBytes);
    // Trips: none on an unlimited run.
    for (obs::Metric trip : {obs::Metric::kExecTripsStepBudget,
                             obs::Metric::kExecTripsPathBudget,
                             obs::Metric::kExecTripsByteBudget,
                             obs::Metric::kExecTripsDeadline,
                             obs::Metric::kExecTripsCancelled,
                             obs::Metric::kExecTripsFault}) {
      EXPECT_EQ(reg.Value(trip), 0u) << obs::MetricName(trip);
    }
    ExpectSlotConservation(reg);
    ExpectSpansNest(reg);

    // The level-width histogram saw exactly levels-counter samples.
    EXPECT_EQ(reg.SnapshotHistogram(obs::Hist::kTraversalLevelWidth).count,
              reg.Value(obs::Metric::kTraversalLevels));
  }
}

// Law 1's parallel half: merge attribution lands each shard's emitted
// paths in that shard's slot, and the slots sum to the result size.
TEST_P(ObsInvariantsTest, ParallelShardAttributionConserved) {
  Rng rng(GetParam() * 0x2545f4914f6cdd1dULL + 353);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 359 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());
    for (ThreadPool* pool : Pools()) {
      SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
      obs::ObsRegistry reg;
      Result<GovernedPathSet> result =
          RunParallel(graph, spec, ExecLimits::Unlimited(), *pool, &reg);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(reg.Value(obs::Metric::kTraversalPathsEmitted),
                result->paths.size());
      ExpectSlotConservation(reg);
      ExpectSpansNest(reg);
    }
  }
}

// Law 4 across budget regimes calibrated from an unlimited probe, so trips
// land mid-seed, mid-level, and at the final level across the population.
TEST_P(ObsInvariantsTest, SequentialParallelCounterIdentity) {
  Rng rng(GetParam() * 0xda942042e4dd58b5ULL + 367);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 373 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    obs::ObsRegistry probe_reg;
    Result<GovernedPathSet> probe =
        RunSequential(graph, spec, ExecLimits::Unlimited(), &probe_reg);
    ASSERT_TRUE(probe.ok());
    const size_t steps = probe->stats.steps_expanded;
    const size_t paths = probe->stats.paths_yielded;
    const size_t bytes = probe->stats.bytes_charged;

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

    for (size_t r = 0; r < regimes.size(); ++r) {
      SCOPED_TRACE("regime " + std::to_string(r));
      obs::ObsRegistry seq_reg;
      Result<GovernedPathSet> seq =
          RunSequential(graph, spec, regimes[r], &seq_reg);
      ASSERT_TRUE(seq.ok());
      // A truncated run records its trip exactly once, in the right bin.
      if (seq->truncated) {
        const uint64_t trips =
            seq_reg.Value(obs::Metric::kExecTripsStepBudget) +
            seq_reg.Value(obs::Metric::kExecTripsPathBudget) +
            seq_reg.Value(obs::Metric::kExecTripsByteBudget);
        EXPECT_EQ(trips, 1u);
      }
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
        obs::ObsRegistry par_reg;
        Result<GovernedPathSet> par =
            RunParallel(graph, spec, regimes[r], *pool, &par_reg);
        ASSERT_TRUE(par.ok());
        ASSERT_EQ(seq->paths, par->paths);
        ExpectCountersIdentical(seq_reg, par_reg);
        ExpectSlotConservation(par_reg);
        ExpectSpansNest(par_reg);
      }
    }

    // Law 4 under an injected fault: both engines trip at the same probe,
    // and both registries bin it under exec.trips.fault. CheckStep batches
    // (one probe can cover many steps), so calibrate nth against a probe
    // census, not steps_expanded, to guarantee the fault actually fires.
    if (steps > 0) {
      uint64_t probes = 0;
      {
        ScopedFault census(kFaultSiteBudgetCheck,
                           std::numeric_limits<uint64_t>::max(),
                           Status::Cancelled("census"));
        Result<GovernedPathSet> r =
            RunSequential(graph, spec, ExecLimits::Unlimited(), nullptr);
        ASSERT_TRUE(r.ok());
        probes = FaultInjector::Global().Hits(kFaultSiteBudgetCheck);
      }
      ASSERT_GT(probes, 0u);
      const uint64_t nth = rng.Between(1, probes);
      const Status injected = Status::Cancelled("injected budget fault");
      obs::ObsRegistry seq_reg;
      PathSet seq_paths;
      {
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        Result<GovernedPathSet> seq =
            RunSequential(graph, spec, ExecLimits::Unlimited(), &seq_reg);
        ASSERT_TRUE(seq.ok());
        seq_paths = std::move(seq->paths);
      }
      EXPECT_EQ(seq_reg.Value(obs::Metric::kExecTripsFault), 1u);
      for (ThreadPool* pool : Pools()) {
        SCOPED_TRACE("fault, threads " + std::to_string(pool->num_threads()));
        obs::ObsRegistry par_reg;
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        Result<GovernedPathSet> par =
            RunParallel(graph, spec, ExecLimits::Unlimited(), *pool, &par_reg);
        ASSERT_TRUE(par.ok());
        ASSERT_EQ(seq_paths, par->paths);
        ExpectCountersIdentical(seq_reg, par_reg);
      }
    }
  }
}

// A governance trip annotates the innermost open span with its Status
// message, so a byte-budget burn is attributable to the exact level.
TEST_P(ObsInvariantsTest, TripsAnnotateTheInnermostSpan) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 401);
  for (int c = 0; c < 3; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 409 + c + 1);
    TraversalSpec spec;
    spec.steps = RandomSteps(rng, graph.num_vertices(), graph.num_labels());

    obs::ObsRegistry probe_reg;
    Result<GovernedPathSet> probe =
        RunSequential(graph, spec, ExecLimits::Unlimited(), &probe_reg);
    ASSERT_TRUE(probe.ok());
    if (probe->stats.steps_expanded == 0) continue;

    ExecLimits limits;
    limits.max_steps = static_cast<size_t>(
        rng.Between(1, probe->stats.steps_expanded));
    obs::ObsRegistry reg;
    Result<GovernedPathSet> result = RunSequential(graph, spec, limits, &reg);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->truncated);

    size_t annotated = 0;
    for (const obs::SpanRecord& s : reg.Spans()) {
      if (s.note.empty()) continue;
      ++annotated;
      EXPECT_EQ(s.note, result->limit.message());
      // The trip fired inside the fold, so the annotated span is one of
      // the fold's own frames, never a foreign root.
      EXPECT_TRUE(s.name == "traverse" || s.name == "traverse.level")
          << s.name;
    }
    EXPECT_EQ(annotated, 1u);
  }
}

// The count fold under a registry, in both directions: the exec.* deltas
// it reports equal the stats it returns in each regime — unlimited (the
// fold answers), a step budget below an unlimited probe's steps_expanded
// (the enumerating fold answers, truncated), and an already-expired
// deadline (a count of 0, truncated) — its spans nest, and a truncated run
// records exactly one trip.
TEST_P(ObsInvariantsTest, CountFoldCountersMatchItsStats) {
  Rng rng(GetParam() * 0x2545f4914f6cdd1dULL + 419);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 421 + c + 1);
    const std::vector<EdgePattern> steps =
        RandomSteps(rng, graph.num_vertices(), graph.num_labels());
    for (ChainDirection direction :
         {ChainDirection::kForward, ChainDirection::kBackward}) {
      SCOPED_TRACE(direction == ChainDirection::kForward ? "forward"
                                                         : "backward");
      ExecContext probe_ctx;
      Result<GovernedCount> probe =
          CountChainGoverned(graph, steps, direction, probe_ctx);
      ASSERT_TRUE(probe.ok());
      ASSERT_FALSE(probe->truncated);

      struct Regime {
        ExecLimits limits;
        bool truncates = false;
      };
      std::vector<Regime> regimes;
      regimes.push_back({ExecLimits::Unlimited(), false});
      if (probe->stats.steps_expanded > 0) {
        ExecLimits limits;
        limits.max_steps =
            static_cast<size_t>(rng.Below(probe->stats.steps_expanded));
        regimes.push_back({limits, true});
      }
      ExecLimits expired;
      expired.timeout = std::chrono::nanoseconds(0);
      regimes.push_back({expired, true});

      for (size_t r = 0; r < regimes.size(); ++r) {
        SCOPED_TRACE("regime " + std::to_string(r));
        obs::ObsRegistry reg;
        ExecContext ctx(regimes[r].limits);
        ctx.AttachObs(&reg);
        Result<GovernedCount> count =
            CountChainGoverned(graph, steps, direction, ctx);
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(count->truncated, regimes[r].truncates);
        if (!count->truncated) {
          EXPECT_EQ(count->count, probe->count);
        }
        if (regimes[r].limits.timeout.has_value()) {
          EXPECT_EQ(count->count, 0u);
        }
        EXPECT_EQ(reg.Value(obs::Metric::kExecPathsYielded),
                  count->stats.paths_yielded);
        EXPECT_EQ(reg.Value(obs::Metric::kExecStepsExpanded),
                  count->stats.steps_expanded);
        EXPECT_EQ(reg.Value(obs::Metric::kExecBytesCharged),
                  count->stats.bytes_charged);
        uint64_t trips = 0;
        for (obs::Metric trip : {obs::Metric::kExecTripsStepBudget,
                                 obs::Metric::kExecTripsPathBudget,
                                 obs::Metric::kExecTripsByteBudget,
                                 obs::Metric::kExecTripsDeadline,
                                 obs::Metric::kExecTripsCancelled,
                                 obs::Metric::kExecTripsFault}) {
          trips += reg.Value(trip);
        }
        EXPECT_EQ(trips, count->truncated ? 1u : 0u);
        ExpectSlotConservation(reg);
        ExpectSpansNest(reg);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObsInvariantsTest,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

}  // namespace
}  // namespace mrpa
