// Tests for the chain planner: extraction, estimation, direction choice,
// and forward/backward equivalence (⋈◦ associativity, exercised).

#include "engine/chain_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/cost_model.h"
#include "core/traversal.h"
#include "frontier/policy.h"
#include "generators/generators.h"
#include "obs/obs.h"
#include "util/random.h"

namespace mrpa {
namespace {

MultiRelationalGraph Skewed() {
  // A funnel: many sources fan into a single sink via a mid layer.
  // 20 sources -α-> 4 mids -β-> 1 sink (vertex 24).
  MultiGraphBuilder b;
  for (VertexId s = 0; s < 20; ++s) {
    b.AddEdge(s, 0, 20 + (s % 4));
  }
  for (VertexId m = 20; m < 24; ++m) {
    b.AddEdge(m, 1, 24);
  }
  return b.Build();
}

TEST(ExtractAtomChainTest, FlattensNestedJoins) {
  auto expr = (PathExpr::Labeled(0) + PathExpr::Labeled(1)) +
              PathExpr::Labeled(2);
  auto chain = ExtractAtomChain(*expr);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 3u);
  EXPECT_EQ((*chain)[0], EdgePattern::Labeled(0));
  EXPECT_EQ((*chain)[2], EdgePattern::Labeled(2));
}

TEST(ExtractAtomChainTest, EpsilonVanishes) {
  auto expr = PathExpr::Epsilon() + PathExpr::Labeled(0) +
              PathExpr::Epsilon();
  auto chain = ExtractAtomChain(*expr);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 1u);
}

TEST(ExtractAtomChainTest, PowerOfAtomUnrolls) {
  auto expr = PathExpr::From(0) +
              PathExpr::MakePower(PathExpr::AnyEdge(), 3);
  auto chain = ExtractAtomChain(*expr);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 4u);
}

TEST(ExtractAtomChainTest, RejectsNonChains) {
  EXPECT_FALSE(ExtractAtomChain(*(PathExpr::Labeled(0) |
                                  PathExpr::Labeled(1)))
                   .has_value());
  EXPECT_FALSE(
      ExtractAtomChain(*PathExpr::MakeStar(PathExpr::Labeled(0)))
          .has_value());
  EXPECT_FALSE(ExtractAtomChain(*PathExpr::MakeProduct(
                                    PathExpr::Labeled(0),
                                    PathExpr::Labeled(1)))
                   .has_value());
  EXPECT_FALSE(ExtractAtomChain(
                   *(PathExpr::Labeled(0) +
                     PathExpr::MakeOptional(PathExpr::Labeled(1))))
                   .has_value());
}

TEST(EstimateTest, ExactForIndexedConstraints) {
  auto g = Skewed();
  EXPECT_EQ(EstimatePatternCardinality(g, EdgePattern::Any()),
            g.num_edges());
  EXPECT_EQ(EstimatePatternCardinality(g, EdgePattern::Labeled(0)), 20u);
  EXPECT_EQ(EstimatePatternCardinality(g, EdgePattern::Labeled(1)), 4u);
  EXPECT_EQ(EstimatePatternCardinality(g, EdgePattern::Into(24)), 4u);
  EXPECT_EQ(EstimatePatternCardinality(g, EdgePattern::From(0)), 1u);
  EXPECT_EQ(
      EstimatePatternCardinality(g, EdgePattern::FromAnyOf({0, 1, 2})), 3u);
}

TEST(EstimateTest, MinimumOfConstraints) {
  auto g = Skewed();
  // label 0 (20 edges) ∧ head 24 (4 edges): bound is 4.
  EdgePattern p(IdConstraint(), IdConstraint::Exactly(0),
                IdConstraint::Exactly(24));
  EXPECT_EQ(EstimatePatternCardinality(g, p), 4u);
}

TEST(EstimateTest, NegatedConstraintsFallBack) {
  auto g = Skewed();
  EXPECT_EQ(EstimatePatternCardinality(
                g, EdgePattern::LabeledAnyOf({0}, /*negated=*/true)),
            g.num_edges());
}

TEST(PlanTest, PicksSelectiveEnd) {
  auto g = Skewed();
  // E ⋈◦ [_,_,24]: backward seed (4 in-edges) beats forward (24 edges).
  std::vector<EdgePattern> dest_selective = {EdgePattern::Any(),
                                             EdgePattern::Into(24)};
  ChainPlan plan = PlanChain(g, dest_selective);
  EXPECT_EQ(plan.direction, ChainDirection::kBackward);
  EXPECT_LT(plan.backward_seed_estimate, plan.forward_seed_estimate);

  // [0,_,_] ⋈◦ E: forward seed (1 edge) wins.
  std::vector<EdgePattern> source_selective = {EdgePattern::From(0),
                                               EdgePattern::Any()};
  plan = PlanChain(g, source_selective);
  EXPECT_EQ(plan.direction, ChainDirection::kForward);
}

TEST(EvaluateChainTest, DirectionsAgree) {
  auto graph = GenerateErdosRenyi(
      {.num_vertices = 40, .num_labels = 3, .num_edges = 120, .seed = 17});
  ASSERT_TRUE(graph.ok());
  const std::vector<std::vector<EdgePattern>> chains = {
      {EdgePattern::Any(), EdgePattern::Any()},
      {EdgePattern::Labeled(0), EdgePattern::Labeled(1),
       EdgePattern::Labeled(2)},
      {EdgePattern::From(3), EdgePattern::Any(), EdgePattern::Into(7)},
      {EdgePattern::Any()},
      {},
  };
  for (const auto& steps : chains) {
    auto forward = EvaluateChain(*graph, steps, ChainDirection::kForward);
    auto backward = EvaluateChain(*graph, steps, ChainDirection::kBackward);
    ASSERT_TRUE(forward.ok());
    ASSERT_TRUE(backward.ok());
    EXPECT_EQ(forward.value(), backward.value());
  }
}

TEST(EvaluateChainTest, MatchesTraverse) {
  auto graph = GenerateErdosRenyi(
      {.num_vertices = 30, .num_labels = 2, .num_edges = 90, .seed = 23});
  ASSERT_TRUE(graph.ok());
  std::vector<EdgePattern> steps = {EdgePattern::Labeled(0),
                                    EdgePattern::Any(),
                                    EdgePattern::Labeled(1)};
  auto via_chain =
      EvaluateChain(*graph, steps, ChainDirection::kBackward);
  auto via_traverse = Traverse(*graph, {steps, {}});
  ASSERT_TRUE(via_chain.ok());
  ASSERT_TRUE(via_traverse.ok());
  EXPECT_EQ(via_chain.value(), via_traverse.value());
}

TEST(EvaluatePlannedTest, ChainsAndNonChains) {
  auto g = Skewed();
  // A chain: must equal the plain evaluation.
  auto chain_expr = PathExpr::Labeled(0) + PathExpr::Labeled(1);
  auto planned = EvaluatePlanned(*chain_expr, g);
  auto direct = chain_expr->Evaluate(g);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(planned.value(), direct.value());

  // A non-chain: falls back to Evaluate.
  auto union_expr = PathExpr::Labeled(0) | PathExpr::Labeled(1);
  auto planned_union = EvaluatePlanned(*union_expr, g);
  auto direct_union = union_expr->Evaluate(g);
  ASSERT_TRUE(planned_union.ok());
  ASSERT_TRUE(direct_union.ok());
  EXPECT_EQ(planned_union.value(), direct_union.value());
}

// (R*)* = R*, (R*)+ = R* and (R+)+ = R+ are identities of languages, not
// of bounded closures: under max_star_expansion the outer closure repeats
// the bounded inner one and reaches longer paths than the inner one alone.
// Planned evaluation must evaluate such shapes as written, as
// PathExpr::Evaluate and compiled queries do.
TEST(EvaluatePlannedTest, NestedBoundedClosuresEvaluateAsWritten) {
  // A 3-cycle plus a fan from vertex 3.
  MultiGraphBuilder b;
  b.AddEdge(0, 0, 1);
  b.AddEdge(1, 0, 2);
  b.AddEdge(2, 0, 0);
  for (VertexId v = 0; v < 3; ++v) b.AddEdge(3, 0, v);
  const MultiRelationalGraph g = b.Build();
  const PathExprPtr e = PathExpr::AnyEdge();
  const PathExprPtr shapes[] = {
      PathExpr::MakeStar(PathExpr::MakeStar(e)),
      PathExpr::MakePlus(PathExpr::MakeStar(e)),
      PathExpr::MakePlus(PathExpr::MakePlus(e)),
  };
  for (size_t bound : {2, 3}) {
    EvalOptions options;
    options.max_star_expansion = bound;
    CompileOptions compile;
    compile.eval = options;
    for (const PathExprPtr& shape : shapes) {
      SCOPED_TRACE(shape->ToString() + " bound " + std::to_string(bound));
      Result<PathSet> direct = shape->Evaluate(g, options);
      ASSERT_TRUE(direct.ok());
      Result<CompiledQuery> compiled = CompileQuery(shape, g, compile);
      ASSERT_TRUE(compiled.ok());
      ExecContext compiled_ctx;
      Result<GovernedPathSet> run = compiled->Run(compiled_ctx);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->paths, *direct);

      Result<PathSet> planned = EvaluatePlanned(*shape, g, options);
      ASSERT_TRUE(planned.ok());
      EXPECT_EQ(*planned, *direct);
      ExecContext ctx;
      Result<GovernedPathSet> governed =
          EvaluatePlannedGoverned(*shape, g, ctx, options);
      ASSERT_TRUE(governed.ok());
      EXPECT_FALSE(governed->truncated);
      EXPECT_EQ(governed->paths, *direct);
    }
  }
}

TEST(PlanTest, LabelSkewDrivesTheDirection) {
  // The funnel's labels are skewed 20 (α) to 4 (β): whichever end carries
  // the rare label seeds the traversal, and the direction choice never
  // changes the answer.
  auto g = Skewed();
  const std::vector<EdgePattern> rare_last = {EdgePattern::Labeled(0),
                                              EdgePattern::Labeled(1)};
  const std::vector<EdgePattern> rare_first = {EdgePattern::Labeled(1),
                                               EdgePattern::Labeled(0)};

  ChainPlan plan = PlanChain(g, rare_last);
  EXPECT_EQ(plan.direction, ChainDirection::kBackward);
  EXPECT_EQ(plan.forward_seed_estimate, 20u);
  EXPECT_EQ(plan.backward_seed_estimate, 4u);

  plan = PlanChain(g, rare_first);
  EXPECT_EQ(plan.direction, ChainDirection::kForward);
  EXPECT_EQ(plan.forward_seed_estimate, 4u);
  EXPECT_EQ(plan.backward_seed_estimate, 20u);

  for (const auto& steps : {rare_last, rare_first}) {
    auto fwd = EvaluateChain(g, steps, ChainDirection::kForward);
    auto bwd = EvaluateChain(g, steps, ChainDirection::kBackward);
    ASSERT_TRUE(fwd.ok());
    ASSERT_TRUE(bwd.ok());
    EXPECT_EQ(fwd.value(), bwd.value());
  }
}

// --- Hinted PlanChain: cost-model integration and its degradation -------

EdgePattern RandomPattern(Rng& rng, uint32_t num_vertices,
                          uint32_t num_labels) {
  switch (rng.Below(4)) {
    case 0:
      return EdgePattern::Any();
    case 1:
      return EdgePattern::Labeled(
          static_cast<uint32_t>(rng.Below(num_labels)));
    case 2:
      return EdgePattern::From(
          static_cast<uint32_t>(rng.Below(num_vertices)));
    default:
      return EdgePattern::Into(
          static_cast<uint32_t>(rng.Below(num_vertices)));
  }
}

TEST(HintedPlanTest, DegradesToTheHeuristicWithoutUsableStats) {
  // The degradation contract, differentially verified: whenever the cost
  // model cannot calibrate — no registry, a registry with no traversal
  // history, or one whose history is stale for this universe — the hinted
  // overload must reproduce the seed heuristic's plan EXACTLY, over random
  // chains, not merely on a cherry-picked example.
  auto graph = GenerateErdosRenyi(
      {.num_vertices = 30, .num_labels = 4, .num_edges = 80, .seed = 41});
  ASSERT_TRUE(graph.ok());

  obs::ObsRegistry empty_registry;
  obs::ObsRegistry stale_registry;
  // Mean and max level width beyond |E|=80: impossible on this graph, so
  // the stats must belong to some other universe and are rejected.
  stale_registry.Record(obs::Hist::kTraversalLevelWidth, 10'000);

  const CostModel no_registry(*graph, nullptr);
  const CostModel no_history(*graph, &empty_registry);
  const CostModel stale(*graph, &stale_registry);
  EXPECT_FALSE(no_registry.calibrated());
  EXPECT_FALSE(no_history.calibrated());
  EXPECT_FALSE(stale.calibrated());

  Rng rng(0xCAB1u);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<EdgePattern> chain;
    const size_t length = 1 + rng.Below(4);
    for (size_t i = 0; i < length; ++i) {
      chain.push_back(RandomPattern(rng, 30, 4));
    }
    const ChainPlan heuristic = PlanChain(*graph, chain);
    for (const CostModel* model : {&no_registry, &no_history, &stale}) {
      const PlannerCostHints hints = model->Hints(chain);
      EXPECT_FALSE(hints.valid);
      const ChainPlan hinted = PlanChain(*graph, chain, hints);
      EXPECT_EQ(hinted.direction, heuristic.direction);
      EXPECT_EQ(hinted.forward_seed_estimate, heuristic.forward_seed_estimate);
      EXPECT_EQ(hinted.backward_seed_estimate,
                heuristic.backward_seed_estimate);
    }
  }
}

TEST(HintedPlanTest, CalibratedHintsFlipAnExplosiveMiddle) {
  // The motivating case from the cost-model header: seeds compare only the
  // chain ENDS, so a 5-edge head narrowly beats a 6-edge tail and the
  // heuristic goes forward — straight into a 40-edge middle step. The
  // whole-chain frontier model sees the blow-up and flips the direction.
  // Either direction computes the same join, which is what makes the flip
  // safe to take.
  MultiGraphBuilder b;
  for (uint32_t i = 0; i < 5; ++i) {
    b.AddEdge(VertexId{i}, LabelId{0}, VertexId{i + 1});  // head: 5 edges
  }
  for (uint32_t i = 0; i < 10; ++i) {
    for (uint32_t k = 1; k <= 4; ++k) {  // middle: 40 label-1 edges
      b.AddEdge(VertexId{i}, LabelId{1}, VertexId{(i + k) % 10});
    }
  }
  b.AddEdge(VertexId{6}, LabelId{2}, VertexId{7});  // narrow: 2 edges
  b.AddEdge(VertexId{7}, LabelId{2}, VertexId{8});
  for (uint32_t i = 0; i < 6; ++i) {
    b.AddEdge(VertexId{i}, LabelId{3}, VertexId{i + 1});  // tail: 6 edges
  }
  const MultiRelationalGraph g = b.Build();
  const std::vector<EdgePattern> chain = {
      EdgePattern::Labeled(0), EdgePattern::Labeled(1),
      EdgePattern::Labeled(2), EdgePattern::Labeled(3)};

  const ChainPlan heuristic = PlanChain(g, chain);
  EXPECT_EQ(heuristic.direction, ChainDirection::kForward);
  EXPECT_EQ(heuristic.forward_seed_estimate, 5u);
  EXPECT_EQ(heuristic.backward_seed_estimate, 6u);

  obs::ObsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    registry.Record(obs::Hist::kTraversalLevelWidth, 3);
  }
  const CostModel model(g, &registry);
  ASSERT_TRUE(model.calibrated());
  const PlannerCostHints hints = model.Hints(chain);
  ASSERT_TRUE(hints.valid);
  EXPECT_LT(hints.backward_cost, hints.forward_cost);

  const ChainPlan hinted = PlanChain(g, chain, hints);
  EXPECT_EQ(hinted.direction, ChainDirection::kBackward);
  // Hints steer the direction only; the seed estimates stay the index's.
  EXPECT_EQ(hinted.forward_seed_estimate, heuristic.forward_seed_estimate);
  EXPECT_EQ(hinted.backward_seed_estimate, heuristic.backward_seed_estimate);

  auto fwd = EvaluateChain(g, chain, ChainDirection::kForward);
  auto bwd = EvaluateChain(g, chain, ChainDirection::kBackward);
  ASSERT_TRUE(fwd.ok());
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(fwd.value(), bwd.value());
}

// --- Direction symmetry: folding backward over G is folding forward over
// G's converse, edge for edge and charge for charge ---------------------

// Gᵀ: every edge reversed, over the same vertex and label id ranges.
MultiRelationalGraph Converse(const MultiRelationalGraph& g) {
  MultiGraphBuilder b;
  b.ReserveVertices(g.num_vertices());
  b.ReserveLabels(g.num_labels());
  for (const Edge& e : g.AllEdges()) b.AddEdge(e.head, e.label, e.tail);
  return b.Build();
}

// The chain that denotes, over Gᵀ, the converse of `steps` over G: the
// steps reversed, each with its tail and head constraints swapped.
std::vector<EdgePattern> ConverseChain(const std::vector<EdgePattern>& steps) {
  std::vector<EdgePattern> out;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    out.emplace_back(it->head(), it->label(), it->tail());
  }
  return out;
}

PathSet ConversePaths(const PathSet& paths) {
  PathSetBuilder b;
  for (const Path& p : paths) {
    Path reversed;
    for (size_t i = p.length(); i-- > 0;) {
      const Edge& e = p.edge(i);
      reversed.Append(Edge(e.head, e.label, e.tail));
    }
    b.Add(std::move(reversed));
  }
  return b.Build();
}

IdConstraint RandomConstraint(Rng& rng, uint32_t size) {
  switch (rng.Below(4)) {
    case 0:
    case 1:
      return IdConstraint();
    case 2:
      return IdConstraint::Exactly(static_cast<uint32_t>(rng.Below(size)));
    default: {
      std::vector<uint32_t> ids;
      for (uint64_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
        ids.push_back(static_cast<uint32_t>(rng.Below(size)));
      }
      return IdConstraint(std::move(ids), /*negated=*/rng.Below(3) == 0);
    }
  }
}

TEST(DirectionSymmetryTest, BackwardOverGIsForwardOverTheConverse) {
  Rng rng(0x5ca1ab1e);
  for (uint64_t c = 0; c < 32; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const uint32_t num_vertices = static_cast<uint32_t>(10 + rng.Below(40));
    const uint32_t num_labels = static_cast<uint32_t>(1 + rng.Below(3));
    auto graph = GenerateErdosRenyi(
        {.num_vertices = num_vertices,
         .num_labels = num_labels,
         .num_edges = std::min<size_t>(
             60 + rng.Below(300),
             size_t{num_vertices} * num_vertices * num_labels / 2),
         .seed = c + 1});
    ASSERT_TRUE(graph.ok());
    const MultiRelationalGraph converse = Converse(*graph);
    const uint32_t V = graph->num_vertices();
    const uint32_t L = graph->num_labels();
    std::vector<EdgePattern> steps;
    for (uint64_t k = 0, n = 1 + rng.Below(4); k < n; ++k) {
      steps.emplace_back(RandomConstraint(rng, V), RandomConstraint(rng, L),
                         RandomConstraint(rng, V));
    }
    const std::vector<EdgePattern> converse_steps = ConverseChain(steps);

    for (frontier::DensityMode mode :
         {frontier::DensityMode::kForceSparse,
          frontier::DensityMode::kForceDense, frontier::DensityMode::kAuto}) {
      SCOPED_TRACE("density mode " + std::to_string(static_cast<int>(mode)));
      frontier::DensityPolicy policy;
      policy.mode = mode;
      ExecContext backward_ctx;
      auto backward = EvaluateChainGoverned(*graph, steps,
                                            ChainDirection::kBackward,
                                            backward_ctx, policy);
      ExecContext forward_ctx;
      auto forward = EvaluateChainGoverned(converse, converse_steps,
                                           ChainDirection::kForward,
                                           forward_ctx, policy);
      ASSERT_TRUE(backward.ok());
      ASSERT_TRUE(forward.ok());
      EXPECT_EQ(backward->paths, ConversePaths(forward->paths));
      EXPECT_EQ(backward->truncated, forward->truncated);
      EXPECT_EQ(backward->stats.paths_yielded, forward->stats.paths_yielded);
      EXPECT_EQ(backward->stats.steps_expanded,
                forward->stats.steps_expanded);
      EXPECT_EQ(backward->stats.bytes_charged, forward->stats.bytes_charged);
      EXPECT_EQ(backward->stats.truncated, forward->stats.truncated);
    }
  }
}

TEST(EvaluatePlannedTest, DestinationSelectiveUsesBackward) {
  // Correctness of the motivating case: E ⋈◦ E ⋈◦ [_,_,sink].
  auto g = Skewed();
  auto expr = PathExpr::AnyEdge() + PathExpr::Into(24);
  auto planned = EvaluatePlanned(*expr, g);
  auto direct = expr->Evaluate(g);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(planned.value(), direct.value());
  EXPECT_EQ(planned->size(), 20u);  // One funnel path per source vertex.
}

}  // namespace
}  // namespace mrpa
