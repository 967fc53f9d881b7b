// Tests for the §III traversal idioms: complete, source, destination,
// labeled, and combined traversals.

#include "core/traversal.h"

#include <gtest/gtest.h>

#include "generators/generators.h"
#include "graph/multi_graph.h"

namespace mrpa {
namespace {

// 0 -α-> 1 -α-> 2 -α-> 3 and 1 -β-> 3.
MultiRelationalGraph Chain() {
  MultiGraphBuilder b;
  b.AddEdge(0, 0, 1);
  b.AddEdge(1, 0, 2);
  b.AddEdge(2, 0, 3);
  b.AddEdge(1, 1, 3);
  return b.Build();
}

TEST(CompleteTraversalTest, LengthZeroIsEpsilon) {
  auto g = Chain();
  auto result = CompleteTraversal(g, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), PathSet::EpsilonSet());
}

TEST(CompleteTraversalTest, LengthOneIsE) {
  auto g = Chain();
  auto result = CompleteTraversal(g, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), g.num_edges());
}

TEST(CompleteTraversalTest, AllJointPathsOfLengthN) {
  auto g = Chain();
  auto result = CompleteTraversal(g, 2);
  ASSERT_TRUE(result.ok());
  // Joint length-2: 0-1-2 (αα), 1-2-3 (αα), 0-1-3 (αβ).
  EXPECT_EQ(result->size(), 3u);
  for (const Path& p : result.value()) {
    EXPECT_TRUE(p.IsJoint());
    EXPECT_EQ(p.length(), 2u);
  }

  auto three = CompleteTraversal(g, 3);
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->size(), 1u);  // Only 0-1-2-3.

  auto four = CompleteTraversal(g, 4);
  ASSERT_TRUE(four.ok());
  EXPECT_TRUE(four->empty());
}

TEST(CompleteTraversalTest, MatchesJoinPowerOfE) {
  // §III-A: E ⋈◦ ... ⋈◦ E (n times).
  auto g = Chain();
  PathSet E = PathSet::FromEdges(
      std::vector<Edge>(g.AllEdges().begin(), g.AllEdges().end()));
  for (size_t n = 1; n <= 3; ++n) {
    auto via_traversal = CompleteTraversal(g, n);
    auto via_power = JoinPower(E, n);
    ASSERT_TRUE(via_traversal.ok());
    ASSERT_TRUE(via_power.ok());
    EXPECT_EQ(via_traversal.value(), via_power.value()) << "n=" << n;
  }
}

TEST(SourceTraversalTest, AllPathsEmanateFromSources) {
  auto g = Chain();
  auto result = SourceTraversal(g, {0}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // 0-1-2 (αα) and 0-1-3 (αβ).
  for (const Path& p : result.value()) EXPECT_EQ(p.Tail(), 0u);
}

TEST(SourceTraversalTest, FullSourceSetEqualsComplete) {
  // "When Vs = V, a complete traversal is evaluated" (§III-B).
  auto g = Chain();
  std::vector<VertexId> all = {0, 1, 2, 3};
  auto source = SourceTraversal(g, all, 2);
  auto complete = CompleteTraversal(g, 2);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(source.value(), complete.value());
}

TEST(SourceTraversalTest, ComplementForm) {
  // V \ {0}: start anywhere except 0.
  auto g = Chain();
  auto result = SourceTraversal(g, {0}, 2, /*complement=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // Only 1-2-3.
  EXPECT_EQ((*result)[0].Tail(), 1u);
}

TEST(DestinationTraversalTest, RestrictsHeadVertex) {
  auto g = Chain();
  auto result = DestinationTraversal(g, {3}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // 1-2-3 (αα) and 0-1-3 (αβ).
  for (const Path& p : result.value()) EXPECT_EQ(p.Head(), 3u);
}

TEST(DestinationTraversalTest, FullDestinationSetEqualsComplete) {
  auto g = Chain();
  std::vector<VertexId> all = {0, 1, 2, 3};
  auto dest = DestinationTraversal(g, all, 2);
  auto complete = CompleteTraversal(g, 2);
  ASSERT_TRUE(dest.ok());
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(dest.value(), complete.value());
}

TEST(DestinationTraversalTest, ComplementForm) {
  auto g = Chain();
  auto result = DestinationTraversal(g, {3}, 2, /*complement=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // Only 0-1-2.
  EXPECT_EQ((*result)[0].Head(), 2u);
}

TEST(SourceDestinationTest, CombinedRestriction) {
  auto g = Chain();
  auto result = SourceDestinationTraversal(g, {0}, {3}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // 0-1-2-3.
  EXPECT_EQ((*result)[0].Tail(), 0u);
  EXPECT_EQ((*result)[0].Head(), 3u);

  auto len2 = SourceDestinationTraversal(g, {0}, {3}, 2);
  ASSERT_TRUE(len2.ok());
  EXPECT_EQ(len2->size(), 1u);  // 0-1-3 via β.
}

TEST(SourceDestinationTest, SingleStepAppliesBoth) {
  auto g = Chain();
  auto hit = SourceDestinationTraversal(g, {1}, {3}, 1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->size(), 1u);  // (1,β,3).
  auto miss = SourceDestinationTraversal(g, {0}, {3}, 1);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
}

TEST(LabeledTraversalTest, RestrictsStepLabels) {
  auto g = Chain();
  // α then β: only 0-1-3.
  auto result = LabeledTraversal(g, {{0}, {1}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].PathLabel(), (std::vector<LabelId>{0, 1}));
}

TEST(LabeledTraversalTest, EmptyLabelSetMeansOmega) {
  // "When Ωe = Ωf = Ω, a complete traversal is enacted" (§III-D).
  auto g = Chain();
  auto labeled = LabeledTraversal(g, {{}, {}});
  auto complete = CompleteTraversal(g, 2);
  ASSERT_TRUE(labeled.ok());
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(labeled.value(), complete.value());
}

TEST(LabeledTraversalTest, MultiLabelSteps) {
  auto g = Chain();
  auto result = LabeledTraversal(g, {{0}, {0, 1}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // 0-1-2, 1-2-3, 0-1-3.
}

TEST(TraverseTest, GeneralSpecSubsumesIdioms) {
  auto g = Chain();
  TraversalSpec spec;
  spec.steps = {EdgePattern::FromAnyOf({0}), EdgePattern::Labeled(1)};
  auto result = Traverse(g, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], Path({Edge(0, 0, 1), Edge(1, 1, 3)}));
}

TEST(TraverseTest, EmptySpecYieldsEpsilon) {
  auto g = Chain();
  auto result = Traverse(g, TraversalSpec{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), PathSet::EpsilonSet());
}

TEST(LatticeCountTest, CornerToCornerPathsAreBinomial) {
  // On a w×h lattice, joint monotone paths corner to corner number
  // C(w-1 + h-1, w-1).
  auto lattice = GenerateLattice({.width = 4, .height = 3});
  ASSERT_TRUE(lattice.ok());
  const VertexId top_left = 0;
  const VertexId bottom_right = 4 * 3 - 1;
  auto result = SourceDestinationTraversal(*lattice, {top_left},
                                           {bottom_right}, 3 + 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10u);  // C(5,3) = 10.
}

TEST(SourceTraversalTest, ZeroLengthIsEpsilon) {
  auto g = Chain();
  EXPECT_EQ(SourceTraversal(g, {0}, 0).value(), PathSet::EpsilonSet());
  EXPECT_EQ(DestinationTraversal(g, {0}, 0).value(), PathSet::EpsilonSet());
}

TEST(SourceTraversalTest, UnknownSourceYieldsEmpty) {
  auto g = Chain();
  auto result = SourceTraversal(g, {99}, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace mrpa
