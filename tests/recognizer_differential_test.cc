// Differential cross-check of the membership engines (satellite of PR 2):
//
//   * NfaRecognizer (ε-NFA simulation) vs DerivativeRecognizer (Brzozowski
//     derivation, the reference implementation) on random product-free
//     expressions over random graphs — every joint candidate path must get
//     the same verdict from both engines.
//   * Governed recognition under an armed ExecContext: wherever the budget
//     allows a verdict at all, it must agree with the ungoverned one, and a
//     trip must surface the guard's status, never a wrong verdict.
//   * The batch filters against judging the candidates one by one:
//     AcceptedSubset keeps exactly the candidates Recognize accepts, and
//     AcceptedSubsetGoverned, under step budgets and injected faults, keeps
//     the accepted candidates among those judged before the trip, with the
//     truncation, limit status and counters of governed Recognize calls
//     made one by one on one context.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/expr.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "regex/derivatives.h"
#include "regex/recognizer.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"

namespace mrpa {
namespace {

PathExprPtr RandomAtom(Rng& rng, uint32_t num_vertices, uint32_t num_labels) {
  switch (rng.Below(4)) {
    case 0:
      return PathExpr::AnyEdge();
    case 1:
      return PathExpr::Labeled(static_cast<LabelId>(rng.Below(num_labels)));
    case 2:
      return PathExpr::From(static_cast<VertexId>(rng.Below(num_vertices)));
    default:
      return PathExpr::Into(static_cast<VertexId>(rng.Below(num_vertices)));
  }
}

// A random product-free expression — the fragment where the Brzozowski
// engine is total on joint inputs. Unbounded operators (star/plus/power)
// are applied to atoms only, keeping the NFA frontier small enough that
// the 500-case population stays fast.
PathExprPtr RandomProductFreeExpr(Rng& rng, uint32_t num_vertices,
                                  uint32_t num_labels, int depth) {
  if (depth <= 0 || rng.Chance(0.3)) {
    return RandomAtom(rng, num_vertices, num_labels);
  }
  switch (rng.Below(6)) {
    case 0:
      return PathExpr::MakeUnion(
          RandomProductFreeExpr(rng, num_vertices, num_labels, depth - 1),
          RandomProductFreeExpr(rng, num_vertices, num_labels, depth - 1));
    case 1:
      return PathExpr::MakeJoin(
          RandomProductFreeExpr(rng, num_vertices, num_labels, depth - 1),
          RandomProductFreeExpr(rng, num_vertices, num_labels, depth - 1));
    case 2:
      return PathExpr::MakeOptional(
          RandomProductFreeExpr(rng, num_vertices, num_labels, depth - 1));
    case 3:
      return PathExpr::MakeStar(RandomAtom(rng, num_vertices, num_labels));
    case 4:
      return PathExpr::MakePlus(RandomAtom(rng, num_vertices, num_labels));
    default:
      return PathExpr::MakePower(RandomAtom(rng, num_vertices, num_labels),
                                 1 + rng.Below(3));
  }
}

// All joint paths of the graph up to length 3, plus ε: the candidate
// population every engine is interrogated over. ε is deliberately included
// — it makes zero CheckStep calls, an edge case of the governed scan.
PathSet CandidatePaths(const MultiRelationalGraph& graph) {
  PathSet candidates = PathSet::EpsilonSet();
  for (size_t length = 1; length <= 3; ++length) {
    TraversalSpec spec;
    spec.steps.assign(length, EdgePattern::Any());
    Result<PathSet> paths = Traverse(graph, spec);
    EXPECT_TRUE(paths.ok());
    if (paths.ok()) candidates = Union(candidates, *paths);
  }
  return candidates;
}

MultiRelationalGraph SmallRandomGraph(Rng& rng, uint64_t seed) {
  ErdosRenyiParams params;
  params.num_vertices = 12;
  params.num_labels = 3;
  params.num_edges = 40;
  params.seed = seed;
  params.allow_self_loops = rng.Chance(0.5);
  return GenerateErdosRenyi(params).value();
}

struct BatchOutcome {
  PathSet paths;
  bool truncated = false;
  Status limit;
  ExecStats stats;
};

BatchOutcome RunBatch(const NfaRecognizer& nfa, const PathSet& candidates,
                      const ExecLimits& limits) {
  ExecContext ctx(limits);
  Result<GovernedPathSet> result = nfa.AcceptedSubsetGoverned(candidates, ctx);
  BatchOutcome out;
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return out;
  out.paths = std::move(result->paths);
  out.truncated = result->truncated;
  out.limit = result->limit;
  out.stats = result->stats;
  return out;
}

// The governed batch's reference: candidates judged one by one, in
// canonical order, by governed Recognize calls on one context until one
// trips; each judged candidate is kept on its ungoverned verdict.
BatchOutcome JudgeOneByOne(const NfaRecognizer& nfa, const PathSet& candidates,
                           const ExecLimits& limits) {
  ExecContext ctx(limits);
  BatchOutcome out;
  std::vector<Path> kept;
  for (const Path& p : candidates) {
    Result<bool> judged = nfa.Recognize(p, ctx);
    if (!judged.ok()) {
      out.truncated = true;
      out.limit = judged.status();
      break;
    }
    if (nfa.Recognize(p)) kept.push_back(p);
  }
  out.paths = PathSet::FromSortedUnique(std::move(kept));
  out.stats = ctx.Snapshot();
  return out;
}

void ExpectBatchIdentical(const BatchOutcome& expected,
                          const BatchOutcome& actual) {
  EXPECT_EQ(expected.truncated, actual.truncated);
  EXPECT_EQ(expected.limit, actual.limit)
      << "expected: " << expected.limit << " actual: " << actual.limit;
  EXPECT_EQ(expected.paths, actual.paths);
  EXPECT_EQ(expected.stats.paths_yielded, actual.stats.paths_yielded);
  EXPECT_EQ(expected.stats.steps_expanded, actual.stats.steps_expanded);
  EXPECT_EQ(expected.stats.bytes_charged, actual.stats.bytes_charged);
  EXPECT_EQ(expected.stats.truncated, actual.stats.truncated);
}

class RecognizerDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

// NFA simulation vs Brzozowski derivation: same verdict on every joint
// candidate, for every random product-free expression.
TEST_P(RecognizerDifferentialTest, NfaAgreesWithDerivatives) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 5);
  for (int c = 0; c < 6; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = SmallRandomGraph(rng, GetParam() * 61 + c + 1);
    PathSet candidates = CandidatePaths(graph);
    PathExprPtr expr = RandomProductFreeExpr(rng, graph.num_vertices(),
                                             graph.num_labels(), 3);
    SCOPED_TRACE(expr->ToString());

    Result<NfaRecognizer> nfa = NfaRecognizer::Compile(*expr);
    ASSERT_TRUE(nfa.ok()) << nfa.status();
    Result<DerivativeRecognizer> deriv = DerivativeRecognizer::Compile(expr);
    ASSERT_TRUE(deriv.ok()) << deriv.status();

    for (const Path& p : candidates) {
      Result<bool> reference = deriv->Recognize(p);
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(nfa->Recognize(p), *reference) << p.ToString();
    }
  }
}

// Governed recognition: a verdict reached under a budget must be the true
// verdict; a trip must carry the guard's status, never a wrong answer.
TEST_P(RecognizerDifferentialTest, GovernedVerdictsAgreeOrTrip) {
  Rng rng(GetParam() * 0x2545f4914f6cdd1dULL + 9);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = SmallRandomGraph(rng, GetParam() * 83 + c + 1);
    PathSet candidates = CandidatePaths(graph);
    PathExprPtr expr = RandomProductFreeExpr(rng, graph.num_vertices(),
                                             graph.num_labels(), 3);
    Result<NfaRecognizer> nfa = NfaRecognizer::Compile(*expr);
    ASSERT_TRUE(nfa.ok());

    for (const Path& p : candidates) {
      const bool truth = nfa->Recognize(p);
      ExecContext ctx =
          ExecContext::WithStepBudget(1 + rng.Below(32));
      Result<bool> governed = nfa->Recognize(p, ctx);
      if (governed.ok()) {
        EXPECT_EQ(*governed, truth) << p.ToString();
        EXPECT_FALSE(ctx.Exceeded());
      } else {
        EXPECT_TRUE(governed.status().IsResourceExhausted())
            << governed.status();
        EXPECT_TRUE(ctx.Exceeded());
      }
    }
  }
}

// The ungoverned batch filter keeps exactly the accepted candidates.
TEST_P(RecognizerDifferentialTest, AcceptedSubsetMatchesRecognize) {
  Rng rng(GetParam() * 0xda942042e4dd58b5ULL + 13);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph = SmallRandomGraph(rng, GetParam() * 97 + c + 1);
    PathSet candidates = CandidatePaths(graph);
    PathExprPtr expr = RandomProductFreeExpr(rng, graph.num_vertices(),
                                             graph.num_labels(), 3);
    Result<NfaRecognizer> nfa = NfaRecognizer::Compile(*expr);
    ASSERT_TRUE(nfa.ok());

    std::vector<Path> accepted;
    for (const Path& p : candidates) {
      if (nfa->Recognize(p)) accepted.push_back(p);
    }
    EXPECT_EQ(nfa->AcceptedSubset(candidates),
              PathSet::FromSortedUnique(std::move(accepted)));
  }
}

// The governed batch filter equals judging the candidates one by one —
// accepted set, truncation point, limit status, counters — for unlimited
// runs, random step budgets, and injected faults alike.
TEST_P(RecognizerDifferentialTest, AcceptedSubsetGovernedMatchesOneByOne) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 21);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MultiRelationalGraph graph =
        SmallRandomGraph(rng, GetParam() * 113 + c + 1);
    PathSet candidates = CandidatePaths(graph);
    PathExprPtr expr = RandomProductFreeExpr(rng, graph.num_vertices(),
                                             graph.num_labels(), 3);
    Result<NfaRecognizer> nfa = NfaRecognizer::Compile(*expr);
    ASSERT_TRUE(nfa.ok());

    // Probe for the full scan cost; budgets are drawn inside it so trips
    // land at interior candidates.
    BatchOutcome probe = RunBatch(*nfa, candidates, ExecLimits::Unlimited());
    ASSERT_FALSE(probe.truncated);
    const size_t steps = probe.stats.steps_expanded;

    std::vector<ExecLimits> regimes;
    regimes.push_back(ExecLimits::Unlimited());
    for (int draw = 0; draw < 2 && steps > 0; ++draw) {
      ExecLimits limits;
      limits.max_steps = static_cast<size_t>(rng.Between(1, steps));
      regimes.push_back(limits);
    }
    for (size_t r = 0; r < regimes.size(); ++r) {
      SCOPED_TRACE("regime " + std::to_string(r));
      ExpectBatchIdentical(JudgeOneByOne(*nfa, candidates, regimes[r]),
                           RunBatch(*nfa, candidates, regimes[r]));
    }

    if (steps > 0) {
      SCOPED_TRACE("fault");
      const uint64_t nth = rng.Between(1, steps);
      const Status injected = Status::DeadlineExceeded("injected nfa fault");
      BatchOutcome expected;
      {
        ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
        expected = JudgeOneByOne(*nfa, candidates, ExecLimits::Unlimited());
      }
      ScopedFault fault(kFaultSiteBudgetCheck, nth, injected);
      ExpectBatchIdentical(
          expected, RunBatch(*nfa, candidates, ExecLimits::Unlimited()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecognizerDifferentialTest,
                         ::testing::Values(5, 13, 17, 29));

}  // namespace
}  // namespace mrpa
