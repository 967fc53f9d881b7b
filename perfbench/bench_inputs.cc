#include "bench_inputs.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>

namespace perfbench {

using mrpa::net::WireRequest;

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "remote_point") return Workload::kRemotePoint;
  if (name == "remote_summary") return Workload::kRemoteSummary;
  if (name == "live_ingest") return Workload::kLiveIngest;
  return std::nullopt;
}

size_t ChurnLength(double seconds) {
  return static_cast<size_t>(std::ceil(kVerdictsPerSecond * (seconds + 4)));
}

bool WriteRequests(const std::string& path,
                   const std::vector<WireRequest>& requests) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const WireRequest& r : requests) {
    auto frame = mrpa::net::EncodeRequestFrame(r);
    if (!frame.ok()) return false;
    out.write(reinterpret_cast<const char*>(frame->data()),
              static_cast<std::streamsize>(frame->size()));
  }
  return out.good();
}

std::optional<std::vector<WireRequest>> ReadRequests(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  std::vector<WireRequest> requests;
  for (std::span<const uint8_t> rest(bytes); !rest.empty();) {
    const auto frame = mrpa::net::ExtractFrame(rest);
    if (frame.state != mrpa::net::FrameState::kFrame) return std::nullopt;
    auto request = mrpa::net::DecodeRequestPayload(rest.subspan(
        mrpa::net::kFrameHeaderBytes,
        frame.frame_bytes - mrpa::net::kFrameHeaderBytes));
    if (!request.ok()) return std::nullopt;
    requests.push_back(std::move(*request));
    rest = rest.subspan(frame.frame_bytes);
  }
  return requests;
}

std::string DescribeRequest(const WireRequest& request) {
  static constexpr const char* kKinds[] = {"traversal", "forward", "backward"};
  static constexpr const char* kModes[] = {"paths", "count", "exists"};
  std::string out = std::string(kKinds[static_cast<int>(request.kind)]) + " " +
                    kModes[static_cast<int>(request.mode)];
  for (const mrpa::EdgePattern& step : request.steps) {
    out += " " + step.ToString();
  }
  return out;
}

std::string FormatVerdict(const Verdict& verdict) {
  return std::string(verdict.remove ? "- " : "+ ") +
         std::to_string(verdict.edge.tail) + ' ' +
         std::to_string(verdict.edge.label) + ' ' +
         std::to_string(verdict.edge.head);
}

std::optional<Verdict> ParseVerdict(const std::string& line) {
  std::istringstream in(line);
  std::string op;
  uint64_t tail = 0, label = 0, head = 0;
  if (!(in >> op >> tail >> label >> head)) return std::nullopt;
  if ((op != "+" && op != "-") || tail >= kVertices || label >= kLabels ||
      head >= kVertices) {
    return std::nullopt;
  }
  Verdict verdict;
  verdict.edge = mrpa::Edge(static_cast<uint32_t>(tail),
                            static_cast<uint32_t>(label),
                            static_cast<uint32_t>(head));
  verdict.remove = op == "-";
  return verdict;
}

}  // namespace perfbench
