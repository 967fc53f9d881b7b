// perfbench_gen: writes one seed's benchmark inputs into a directory.
//
//   perfbench_gen --workload W --seed N --seconds S --dir D
//
// D/graph.tsv     the shared Erdős–Rényi graph (MRG-TSV);
// D/requests.bin  the workload's request pool, as wire request frames;
// D/churn.txt     the churn stream, drawn from a model of the live edge set.
//
// Requests and churn are expressed in the vertex and label ids the timed
// process will see, so the graph is read back through ReadGraphFile (which
// interns names in order of first appearance) before they are drawn.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_inputs.h"
#include "generators/generators.h"
#include "graph/io.h"
#include "graph/multi_graph.h"
#include "util/random.h"

namespace {

using mrpa::Edge;
using mrpa::EdgePattern;
using mrpa::MultiRelationalGraph;
using mrpa::Rng;
using mrpa::VertexId;
using mrpa::net::AnswerMode;
using mrpa::net::WireRequest;
using mrpa::service::QueryKind;
using perfbench::Verdict;
using perfbench::Workload;

constexpr size_t kSummarySteps = 4;

VertexId VertexWithOutEdges(const MultiRelationalGraph& g, Rng& rng) {
  for (;;) {
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    if (!g.OutEdges(v).empty()) return v;
  }
}

VertexId VertexWithInEdges(const MultiRelationalGraph& g, Rng& rng) {
  for (;;) {
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    if (!g.InEdgeIndices(v).empty()) return v;
  }
}

// The end of a random `steps`-edge walk from v, or nullopt if it dead-ends.
std::optional<VertexId> WalkEnd(const MultiRelationalGraph& g, VertexId v,
                                size_t steps, Rng& rng) {
  for (size_t i = 0; i < steps; ++i) {
    const auto out = g.OutEdges(v);
    if (out.empty()) return std::nullopt;
    v = out[rng.Below(out.size())].head;
  }
  return v;
}

WireRequest Request(QueryKind kind, AnswerMode mode,
                    std::vector<EdgePattern> steps) {
  WireRequest r;
  r.tenant = perfbench::kTenant;
  r.kind = kind;
  r.mode = mode;
  r.steps = std::move(steps);
  return r;
}

// remote_point and live_ingest: 2-step source-anchored fan-outs, ~64 paths.
std::vector<WireRequest> PointRequests(const MultiRelationalGraph& g,
                                       Rng& rng) {
  std::vector<WireRequest> out;
  for (size_t i = 0; i < perfbench::kPointRequests; ++i) {
    out.push_back(Request(QueryKind::kTraversal, AnswerMode::kPaths,
                          {EdgePattern::From(VertexWithOutEdges(g, rng)),
                           EdgePattern::Any()}));
  }
  return out;
}

// remote_summary: a rotation of three 4-step shapes, one per QueryKind. The
// far step of the two fan-outs keeps three of the four labels, so that
// level carries a set-valued filter.
std::vector<WireRequest> SummaryRequests(const MultiRelationalGraph& g,
                                         Rng& rng) {
  const EdgePattern three_labels = EdgePattern::LabeledAnyOf({0, 1, 2});
  std::vector<WireRequest> out;
  for (size_t i = 0; i < perfbench::kSummaryRequestsPerShape; ++i) {
    const VertexId v = VertexWithOutEdges(g, rng);
    out.push_back(Request(QueryKind::kTraversal, AnswerMode::kCount,
                          {EdgePattern::From(v), EdgePattern::Any(),
                           EdgePattern::Any(), three_labels}));

    // Half of the exists probes target the end of a seeded walk (true by
    // construction); the rest target a uniform vertex.
    VertexId from = VertexWithOutEdges(g, rng);
    VertexId to = static_cast<VertexId>(rng.Below(g.num_vertices()));
    if (rng.Below(2) == 0) {
      std::optional<VertexId> end;
      while (!(end = WalkEnd(g, from, kSummarySteps, rng))) {
        from = VertexWithOutEdges(g, rng);
      }
      to = *end;
    }
    out.push_back(Request(QueryKind::kChainForward, AnswerMode::kExists,
                          {EdgePattern::From(from), EdgePattern::Any(),
                           EdgePattern::Any(), EdgePattern::Into(to)}));

    out.push_back(Request(QueryKind::kChainBackward, AnswerMode::kCount,
                          {three_labels, EdgePattern::Any(),
                           EdgePattern::Any(),
                           EdgePattern::Into(VertexWithInEdges(g, rng))}));
  }
  return out;
}

// Alternates AddEdge of an edge absent from the live set with RemoveEdge of
// a uniformly chosen live edge, so |E| stays within one of its start.
std::vector<Verdict> ChurnStream(const MultiRelationalGraph& g, size_t length,
                                 Rng& rng) {
  const uint64_t n = g.num_vertices();
  const uint64_t labels = g.num_labels();
  auto key_of = [&](const Edge& e) {
    return (static_cast<uint64_t>(e.tail) * n + e.head) * labels + e.label;
  };
  std::vector<Edge> live(g.AllEdges().begin(), g.AllEdges().end());
  std::unordered_map<uint64_t, size_t> position;
  position.reserve(live.size() * 2);
  for (size_t i = 0; i < live.size(); ++i) position[key_of(live[i])] = i;

  std::vector<Verdict> out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    Verdict v;
    if (i % 2 == 0) {
      do {
        v.edge = Edge(static_cast<VertexId>(rng.Below(n)),
                      static_cast<mrpa::LabelId>(rng.Below(labels)),
                      static_cast<VertexId>(rng.Below(n)));
      } while (position.count(key_of(v.edge)) != 0);
      position[key_of(v.edge)] = live.size();
      live.push_back(v.edge);
    } else {
      const size_t victim = rng.Below(live.size());
      v.edge = live[victim];
      v.remove = true;
      position.erase(key_of(v.edge));
      if (victim + 1 != live.size()) {
        live[victim] = live.back();
        position[key_of(live[victim])] = victim;
      }
      live.pop_back();
    }
    out.push_back(v);
  }
  return out;
}

int Fail(const std::string& message) {
  std::cerr << "perfbench_gen: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, dir;
  uint64_t seed = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (flag == "--dir") {
      dir = argv[i + 1];
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  const std::optional<Workload> workload =
      perfbench::ParseWorkload(workload_name);
  if (!workload || dir.empty() || seconds <= 0) {
    return Fail(
        "usage: perfbench_gen --workload W --seed N --seconds S --dir D");
  }

  mrpa::ErdosRenyiParams params;
  params.num_vertices = perfbench::kVertices;
  params.num_labels = perfbench::kLabels;
  params.num_edges = perfbench::kEdges;
  params.seed = mrpa::SplitMix64(seed).Next();
  const std::string graph_path = dir + "/" + perfbench::kGraphFile;
  {
    auto generated = mrpa::GenerateErdosRenyi(params);
    if (!generated.ok()) return Fail(generated.status().ToString());
    if (auto st = mrpa::WriteGraphFile(*generated, graph_path); !st.ok()) {
      return Fail(st.ToString());
    }
  }
  auto graph = mrpa::ReadGraphFile(graph_path);
  if (!graph.ok()) return Fail(graph.status().ToString());

  // One stream per input kind, so the request pool does not depend on the
  // churn length and remote_point and live_ingest share their reads.
  Rng request_rng(seed ^ 0x7265717565737473ULL);
  Rng churn_rng(seed ^ 0x636875726e636875ULL);
  const std::vector<WireRequest> requests =
      *workload == Workload::kRemoteSummary
          ? SummaryRequests(*graph, request_rng)
          : PointRequests(*graph, request_rng);
  const std::vector<Verdict> churn =
      ChurnStream(*graph, perfbench::ChurnLength(seconds), churn_rng);

  std::ofstream churn_out(dir + "/" + perfbench::kChurnFile, std::ios::trunc);
  for (const Verdict& v : churn) {
    churn_out << perfbench::FormatVerdict(v) << '\n';
  }
  if (!perfbench::WriteRequests(dir + "/" + perfbench::kRequestsFile,
                                requests) ||
      !churn_out.good()) {
    return Fail("cannot write inputs into " + dir);
  }
  return 0;
}
