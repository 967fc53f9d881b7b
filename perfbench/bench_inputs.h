// The benchmark's generated inputs and the text formats that carry them
// from the generator process (perfbench_gen) to the timed process
// (perfbench_run).
//
// Generation runs in its own process so that neither its time nor its
// memory reaches setup_s or peak_rss_mb: the timed process only reads the
// three files named below.

#ifndef PERFBENCH_BENCH_INPUTS_H_
#define PERFBENCH_BENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/edge.h"
#include "net/wire.h"

namespace perfbench {

// The shared input: a multi-relational Erdős–Rényi graph, mean out-degree 8.
inline constexpr uint32_t kVertices = 100000;
inline constexpr uint32_t kLabels = 4;
inline constexpr size_t kEdges = 800000;

// The churn stream's open-loop rate, and the verdict count that triggers a
// fold.
inline constexpr double kVerdictsPerSecond = 4000;
inline constexpr size_t kVerdictsPerFold = 1000;

// Request pools the clients cycle through.
inline constexpr size_t kPointRequests = 1024;
inline constexpr size_t kSummaryRequestsPerShape = 128;

inline constexpr char kTenant[] = "bench";

inline constexpr char kGraphFile[] = "graph.tsv";
inline constexpr char kRequestsFile[] = "requests.bin";
inline constexpr char kChurnFile[] = "churn.txt";

enum class Workload { kRemotePoint, kRemoteSummary, kLiveIngest };

std::optional<Workload> ParseWorkload(std::string_view name);

// Verdicts the churn stream holds for a run of `seconds`: the measured
// phase plus the post-phase write probe and fold replays.
size_t ChurnLength(double seconds);

// One churn verdict: AddEdge(edge) or RemoveEdge(edge).
struct Verdict {
  mrpa::Edge edge;
  bool remove = false;
};

// The request pool travels as concatenated wire-protocol request frames.
bool WriteRequests(const std::string& path,
                   const std::vector<mrpa::net::WireRequest>& requests);
std::optional<std::vector<mrpa::net::WireRequest>> ReadRequests(
    const std::string& path);

// "kind mode [step] [step]..." for failure messages.
std::string DescribeRequest(const mrpa::net::WireRequest& request);

// One verdict per line: "+ tail label head" or "- tail label head".
std::string FormatVerdict(const Verdict& verdict);
std::optional<Verdict> ParseVerdict(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_INPUTS_H_
