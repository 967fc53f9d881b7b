// End-to-end execution governance: every guarded evaluation loop in the
// stack must trip its ExecContext limit with a clean Status and a truncated
// partial result (or a clean error where no partial exists). One test per
// loop per limit family, plus cancellation and fault-injection paths.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "engine/path_iterator.h"
#include "engine/traversal_builder.h"
#include "generators/generators.h"
#include "graph/io.h"
#include "regex/generator.h"
#include "regex/recognizer.h"
#include "regex/sampler.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"

namespace mrpa {
namespace {

// A small dense graph: K5 with one label — 20 edges, 20·4 two-step paths.
MultiRelationalGraph Clique(uint32_t n = 5) {
  MultiGraphBuilder b;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i != j) b.AddEdge(i, 0, j);
    }
  }
  return b.Build();
}

bool IsSubsetOf(const PathSet& subset, const PathSet& superset) {
  for (const Path& p : subset) {
    if (!superset.Contains(p)) return false;
  }
  return true;
}

// --- Traverse (§III fold) -------------------------------------------------

TEST(GovernanceTest, TraversePathBudgetKeepsFirstKInCanonicalOrder) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};

  auto full = Traverse(g, {steps, {}});
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 7u);

  ExecContext ctx = ExecContext::WithPathBudget(7);
  auto governed = TraverseGoverned(g, {steps, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  ASSERT_EQ(governed->paths.size(), 7u);
  EXPECT_EQ(governed->stats.paths_yielded, 7u);

  // The truncated set is exactly the first 7 of the full set, in order.
  auto it = full->begin();
  for (const Path& p : governed->paths) {
    EXPECT_EQ(p, *it);
    ++it;
  }
}

TEST(GovernanceTest, TraverseStepBudgetTripsWithPartialResult) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};
  ExecContext ctx = ExecContext::WithStepBudget(30);
  auto governed = TraverseGoverned(g, {steps, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  EXPECT_GT(governed->stats.steps_expanded, 0u);

  auto full = Traverse(g, {steps, {}});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(IsSubsetOf(governed->paths, *full));
}

TEST(GovernanceTest, TraverseByteBudgetTrips) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};
  ExecContext ctx = ExecContext::WithByteBudget(256);
  auto governed = TraverseGoverned(g, {steps, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  EXPECT_GT(governed->stats.bytes_charged, 0u);
}

TEST(GovernanceTest, TraverseDeadlineTrips) {
  auto g = Clique(8);
  ExecContext ctx = ExecContext::WithTimeout(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<EdgePattern> steps(4, EdgePattern::Any());
  auto governed = TraverseGoverned(g, {steps, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsDeadlineExceeded())
      << governed->limit.ToString();
}

TEST(GovernanceTest, TraverseCancellation) {
  auto g = Clique(8);
  CancelToken token;
  token.RequestCancel();
  ExecContext ctx(ExecLimits::Unlimited(), token);
  std::vector<EdgePattern> steps(4, EdgePattern::Any());
  auto governed = TraverseGoverned(g, {steps, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsCancelled()) << governed->limit.ToString();
}

TEST(GovernanceTest, TraverseEpsilonUnderZeroPathBudget) {
  auto g = Clique();
  ExecContext ctx = ExecContext::WithPathBudget(0);
  auto governed = TraverseGoverned(g, {{}, {}}, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->paths.empty());
}

TEST(GovernanceTest, UngovernedTraverseUnchangedByGovernanceMachinery) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};
  auto result = Traverse(g, {steps, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 20u * 4u);
}

// --- Chain planner --------------------------------------------------------

TEST(GovernanceTest, BackwardChainPathBudgetTruncates) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};

  auto full = EvaluateChain(g, steps, ChainDirection::kBackward);
  ASSERT_TRUE(full.ok());

  ExecContext ctx = ExecContext::WithPathBudget(5);
  auto governed =
      EvaluateChainGoverned(g, steps, ChainDirection::kBackward, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  EXPECT_EQ(governed->paths.size(), 5u);
  EXPECT_TRUE(IsSubsetOf(governed->paths, *full));
}

TEST(GovernanceTest, BackwardChainStepBudgetTruncates) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};
  ExecContext ctx = ExecContext::WithStepBudget(25);
  auto governed =
      EvaluateChainGoverned(g, steps, ChainDirection::kBackward, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
}

TEST(GovernanceTest, GovernedChainMatchesUngovernedWithinBudget) {
  auto g = Clique();
  std::vector<EdgePattern> steps = {EdgePattern::Any(), EdgePattern::Any()};
  for (ChainDirection dir :
       {ChainDirection::kForward, ChainDirection::kBackward}) {
    ExecContext ctx;  // Unlimited.
    auto governed = EvaluateChainGoverned(g, steps, dir, ctx);
    ASSERT_TRUE(governed.ok());
    EXPECT_FALSE(governed->truncated);
    auto plain = EvaluateChain(g, steps, dir);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(governed->paths, *plain);
  }
}

TEST(GovernanceTest, PlannedGovernedFallbackYieldsEmptyTruncated) {
  auto g = Clique();
  // A star expression is not an atom chain → bottom-up evaluator fallback.
  PathExprPtr expr = PathExpr::MakeStar(PathExpr::AnyEdge());
  ExecContext ctx = ExecContext::WithStepBudget(3);
  auto governed = EvaluatePlannedGoverned(*expr, g, ctx);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  EXPECT_TRUE(governed->paths.empty());
}

TEST(GovernanceTest, ExprEvaluateSurfacesTripAsStatus) {
  auto g = Clique();
  PathExprPtr expr = PathExpr::MakeStar(PathExpr::AnyEdge());
  ExecContext ctx = ExecContext::WithStepBudget(3);
  EvalOptions options;
  options.exec = &ctx;
  auto result = expr->Evaluate(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_TRUE(ctx.Exceeded());
}

// --- Fluent traversal builder ---------------------------------------------

TEST(GovernanceTest, BuilderPathBudgetKeepsFirstKTraversers) {
  auto g = Clique();
  auto full = GraphTraversal(g).V().Out().Out().Execute();
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->Count(), 6u);

  ExecContext ctx = ExecContext::WithPathBudget(6);
  auto governed =
      GraphTraversal(g).V().Out().Out().WithExecContext(&ctx).Execute();
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  ASSERT_EQ(governed->Count(), 6u);
  // The budget keeps the first k traversers in pipeline order.
  for (size_t n = 0; n < 6; ++n) {
    EXPECT_EQ(governed->traversers[n].history, full->traversers[n].history);
  }
}

TEST(GovernanceTest, BuilderStepBudgetTripsMidMove) {
  auto g = Clique();
  ExecContext ctx = ExecContext::WithStepBudget(10);
  auto governed =
      GraphTraversal(g).V().Out().Out().WithExecContext(&ctx).Execute();
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsResourceExhausted());
  EXPECT_GT(governed->stats.steps_expanded, 0u);
}

TEST(GovernanceTest, BuilderDeadlineTrips) {
  auto g = Clique();
  ExecContext ctx = ExecContext::WithTimeout(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto governed =
      GraphTraversal(g).V().Out().Out().WithExecContext(&ctx).Execute();
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->truncated);
  EXPECT_TRUE(governed->limit.IsDeadlineExceeded());
}

TEST(GovernanceTest, BuilderWithinBudgetIsNotTruncated) {
  auto g = Clique();
  ExecContext ctx = ExecContext::WithPathBudget(10'000);
  auto governed =
      GraphTraversal(g).V().Out().WithExecContext(&ctx).Execute();
  ASSERT_TRUE(governed.ok());
  EXPECT_FALSE(governed->truncated);
  auto plain = GraphTraversal(g).V().Out().Execute();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(governed->Count(), plain->Count());
}

// --- Recognizers ----------------------------------------------------------

Path CliqueWalk(size_t length) {
  std::vector<Edge> edges;
  for (size_t n = 0; n < length; ++n) {
    edges.emplace_back(static_cast<VertexId>(n % 2),
                       static_cast<LabelId>(0),
                       static_cast<VertexId>((n + 1) % 2));
  }
  return Path(std::move(edges));
}

TEST(GovernanceTest, NfaRecognizerStepBudgetTrips) {
  auto recognizer =
      NfaRecognizer::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(recognizer.ok());
  Path walk = CliqueWalk(64);
  ExecContext ctx = ExecContext::WithStepBudget(5);
  auto verdict = recognizer->Recognize(walk, ctx);
  ASSERT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.status().IsResourceExhausted());
}

TEST(GovernanceTest, NfaRecognizerAgreesWithUngovernedWithinBudget) {
  auto recognizer = NfaRecognizer::Compile(
      *(PathExpr::MakeStar(PathExpr::Labeled(0)) + PathExpr::Labeled(1)));
  ASSERT_TRUE(recognizer.ok());
  Path walk = CliqueWalk(6);
  ExecContext ctx;
  auto verdict = recognizer->Recognize(walk, ctx);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, recognizer->Recognize(walk));
}

TEST(GovernanceTest, DfaRecognizerStepBudgetTrips) {
  auto recognizer =
      DfaRecognizer::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(recognizer.ok());
  Path walk = CliqueWalk(64);
  ExecContext ctx = ExecContext::WithStepBudget(5);
  auto verdict = recognizer->Recognize(walk, ctx);
  ASSERT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.status().IsResourceExhausted());
}

TEST(GovernanceTest, DfaRecognizerDeadlineTrips) {
  auto recognizer =
      DfaRecognizer::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(recognizer.ok());
  Path walk = CliqueWalk(200);
  ExecContext ctx = ExecContext::WithTimeout(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto verdict = recognizer->Recognize(walk, ctx);
  ASSERT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.status().IsDeadlineExceeded());
}

// --- Generators -----------------------------------------------------------

TEST(GovernanceTest, ProductGraphGeneratorStepBudgetTruncates) {
  auto g = Clique();
  auto generator =
      ProductGraphGenerator::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(generator.ok());
  ExecContext ctx = ExecContext::WithStepBudget(40);
  GenerateOptions options;
  options.max_path_length = 4;
  options.exec = &ctx;
  auto result = generator->Generate(g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->limit.IsResourceExhausted());

  // Graceful degradation: whatever was accepted is genuinely in the
  // language (a subset of the ungoverned run).
  GenerateOptions plain;
  plain.max_path_length = 4;
  auto full = generator->Generate(g, plain);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(IsSubsetOf(result->paths, full->paths));
}

TEST(GovernanceTest, StackMachineGeneratorPathBudgetTruncates) {
  auto g = Clique();
  auto generator =
      StackMachineGenerator::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(generator.ok());
  ExecContext ctx = ExecContext::WithPathBudget(10);
  GenerateOptions options;
  options.max_path_length = 3;
  options.exec = &ctx;
  auto result = generator->Generate(g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->limit.IsResourceExhausted());
}

TEST(GovernanceTest, GeneratorByteBudgetTruncates) {
  auto g = Clique();
  ExecContext ctx = ExecContext::WithByteBudget(512);
  GenerateOptions options;
  options.max_path_length = 4;
  options.exec = &ctx;
  auto result =
      GeneratePaths(*PathExpr::MakeStar(PathExpr::AnyEdge()), g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->limit.IsResourceExhausted());
}

TEST(GovernanceTest, GeneratorUnlimitedContextMatchesUngoverned) {
  auto g = Clique();
  ExecContext ctx;
  GenerateOptions governed;
  governed.max_path_length = 3;
  governed.exec = &ctx;
  GenerateOptions plain;
  plain.max_path_length = 3;
  PathExprPtr expr = PathExpr::MakeStar(PathExpr::AnyEdge());
  auto a = GeneratePaths(*expr, g, governed);
  auto b = GeneratePaths(*expr, g, plain);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both runs hit the length bound (star on a cycle), but the unlimited
  // guard itself must contribute no trip and change no output.
  EXPECT_TRUE(a->limit.ok()) << a->limit.ToString();
  EXPECT_EQ(a->truncated, b->truncated);
  EXPECT_EQ(a->paths, b->paths);
}

// --- Sampler --------------------------------------------------------------

TEST(GovernanceTest, SamplerPrepareStepBudgetTrips) {
  auto g = Clique();
  auto sampler =
      PathSampler::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(sampler.ok());
  ExecContext ctx = ExecContext::WithStepBudget(10);
  SampleOptions options;
  options.max_path_length = 6;
  options.exec = &ctx;
  Status prepared = sampler->Prepare(g, options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_TRUE(prepared.IsResourceExhausted()) << prepared.ToString();
  // A failed Prepare leaves the sampler unusable, cleanly.
  EXPECT_FALSE(sampler->Sample().ok());
}

TEST(GovernanceTest, SamplerUnlimitedContextSamplesNormally) {
  auto g = Clique();
  auto sampler =
      PathSampler::Compile(*PathExpr::MakeStar(PathExpr::AnyEdge()));
  ASSERT_TRUE(sampler.ok());
  ExecContext ctx;
  SampleOptions options;
  options.max_path_length = 3;
  options.exec = &ctx;
  ASSERT_TRUE(sampler->Prepare(g, options).ok());
  auto sample = sampler->Sample();
  ASSERT_TRUE(sample.ok());
  EXPECT_LE(sample->length(), 3u);
}

// --- Graph I/O ------------------------------------------------------------

TEST(GovernanceTest, ReaderByteBudgetTrips) {
  std::string text;
  for (int n = 0; n < 100; ++n) {
    text += "a" + std::to_string(n) + "\tknows\tb" + std::to_string(n) + "\n";
  }
  ExecContext ctx = ExecContext::WithByteBudget(64);
  GraphReadLimits limits;
  limits.exec = &ctx;
  auto graph = ReadGraphFromString(text, limits);
  ASSERT_FALSE(graph.ok());
  EXPECT_TRUE(graph.status().IsResourceExhausted());
}

TEST(GovernanceTest, ReaderStepBudgetBoundsLines) {
  std::string text;
  for (int n = 0; n < 100; ++n) text += "a\tknows\tb\n";
  ExecContext ctx = ExecContext::WithStepBudget(5);
  GraphReadLimits limits;
  limits.exec = &ctx;
  auto graph = ReadGraphFromString(text, limits);
  ASSERT_FALSE(graph.ok());
  EXPECT_TRUE(graph.status().IsResourceExhausted());
}

TEST(GovernanceTest, ReaderFaultInjectionFailsNthRead) {
  ScopedFault fault(kFaultSiteIoRead, /*nth=*/3, Status::IOError("disk gone"));
  auto graph = ReadGraphFromString("a\tx\tb\nb\tx\tc\nc\tx\td\nd\tx\te\n");
  ASSERT_FALSE(graph.ok());
  EXPECT_TRUE(graph.status().IsIOError());
  EXPECT_EQ(graph.status().message(), "disk gone");
}

}  // namespace
}  // namespace mrpa
