// The MRPA wire protocol: length-prefixed, CRC-guarded binary frames
// carrying governed queries and their degradation-contract answers.
//
// PR 6 built the serving substrate (admission → governed execute →
// truncated-partial-result contract) but every tenant was an in-process
// caller. This codec is the network half of ROADMAP item 2: a versioned
// frame format a server and client can speak over any byte stream, designed
// around two rules:
//
//   1. FAIL CLOSED BEFORE ALLOCATING. Every frame and every variable-length
//      field inside a payload is validated against what is actually present
//      (and against hard caps) before a single byte is reserved for it. A
//      lying length field, a truncated stream, or a flipped bit yields
//      kCorruption (or "need more bytes"), never an allocation sized by the
//      attacker and never UB — the hostile-input sweep in
//      tests/net_wire_test.cc flips every byte and truncates at every
//      prefix to prove it.
//
//   2. ANSWERS ARE SUMMARIES WHEN THE CALLER WANTS SUMMARIES. A response
//      carries the full degradation contract (outcome Status, truncation
//      flag, limit Status, snapshot version, ExecStats) plus a payload in
//      one of three answer modes: kPaths materializes the governed PathSet
//      on the wire; kCount and kExists travel as eight and one byte(s) —
//      the compact answer shapes "Representing Paths in Graph Database
//      Pattern Matching" argues a path engine should serve, carried here so
//      a count query over a million-path result costs a constant-size
//      frame — and, because the service computes counts with the count
//      fold (CountChainGoverned), no enumeration either. The truncation
//      framing survives all three modes: a truncated count is labeled
//      partial exactly like a truncated path set.
//
// Frame layout (all integers little-endian at fixed offsets):
//
//   [0..3]   magic 'M''R''P''W'
//   [4]      wire version (kWireVersion)
//   [5]      frame type (FrameType)
//   [6..7]   flags, must be zero (reserved)
//   [8..11]  payload length in bytes
//   [12..15] CRC-32C over the header (with this field zeroed) + payload —
//            any single-bit flip anywhere in the frame is caught.
//
// The codec is transport-agnostic: ExtractFrame consumes an accumulation
// buffer and reports complete-frame / need-more / error, so the epoll
// server (server.h) and the blocking client (client.h) share one parser.

#ifndef MRPA_NET_WIRE_H_
#define MRPA_NET_WIRE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "service/query_service.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa::net {

inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
// Default whole-frame cap (header + payload). Both endpoints reject frames
// beyond their configured cap BEFORE buffering the payload.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;
// Field caps, enforced on encode and decode alike: a frame within the byte
// cap still may not smuggle an absurd tenant name or step chain.
inline constexpr size_t kMaxTenantBytes = 256;
inline constexpr size_t kMaxWireSteps = 128;
inline constexpr size_t kMaxStatusMessageBytes = 4096;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

// How the answer travels (see the file comment). The service executes the
// same mode: kCount and kExists are computed, never projected from paths.
using AnswerMode = service::AnswerMode;

// One query as it crosses the wire. Mirrors service::QueryRequest, plus the
// transport-only fields: the answer mode, a priority byte (carried for
// forward compatibility — admission priority is a tenant property today),
// and the deadline as REMAINING microseconds at send time (absolute clocks
// do not travel between machines; each retry attempt re-derives the
// remaining window from the caller's deadline).
struct WireRequest {
  std::string tenant;
  service::QueryKind kind = service::QueryKind::kTraversal;
  AnswerMode mode = AnswerMode::kPaths;
  uint8_t priority = 0;
  std::vector<EdgePattern> steps;
  // The caller's budgets (timeout encoded as nanoseconds).
  ExecLimits limits;
  std::optional<uint64_t> deadline_micros;
};

// One answer. `outcome` mirrors QueryService::Execute's Result status: OK
// means every other field is meaningful (including degraded answers — a
// shed or a budget trip is an OK response with `truncated` set); a non-OK
// outcome (unknown tenant, no snapshot, corrupt state) carries only the
// status and message.
struct WireResponse {
  Status outcome;
  bool truncated = false;
  Status limit;
  uint64_t snapshot_version = 0;
  uint64_t attempts = 1;
  ExecStats stats;
  AnswerMode mode = AnswerMode::kPaths;
  // kPaths: the governed result paths in canonical order (decode verifies
  // the order and fails closed on an unsorted or duplicated stream).
  PathSet paths;
  // kCount / kExists: the summary. For kPaths, `count` mirrors
  // paths.size() so callers can branch on one field.
  uint64_t count = 0;
  bool exists = false;
};

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint32_t payload_bytes = 0;
};

// Streaming extraction over an accumulation buffer.
enum class FrameState : uint8_t {
  kFrame,     // A whole, CRC-verified frame starts at buffer[0].
  kNeedMore,  // The prefix is valid so far; more bytes are required.
  kError,     // The stream is hostile or corrupt; the connection is dead.
};

struct ExtractResult {
  FrameState state = FrameState::kNeedMore;
  FrameHeader header;
  // Whole-frame size (header + payload) when state == kFrame; the payload
  // is buffer[kFrameHeaderBytes .. frame_bytes).
  size_t frame_bytes = 0;
  Status error;  // Set when state == kError.
};

// Validates as much of `buffer` as is present: the fixed header fields
// (magic, version, zero flags, type, length cap) are checked as soon as the
// first 16 bytes exist — a hostile length field is rejected BEFORE any
// payload is buffered — and the CRC as soon as the whole frame is present.
ExtractResult ExtractFrame(std::span<const uint8_t> buffer,
                           size_t max_frame_bytes = kDefaultMaxFrameBytes);

// Encoders. Fail (kInvalidArgument / kResourceExhausted) instead of
// emitting a frame that violates the field caps or `max_frame_bytes` —
// an over-cap answer must degrade at the sender, not explode the peer.
Result<std::vector<uint8_t>> EncodeRequestFrame(
    const WireRequest& request,
    size_t max_frame_bytes = kDefaultMaxFrameBytes);
Result<std::vector<uint8_t>> EncodeResponseFrame(
    const WireResponse& response,
    size_t max_frame_bytes = kDefaultMaxFrameBytes);

// Payload decoders (the bytes BETWEEN the header and the frame end, i.e.
// buffer[16..frame_bytes) of an extracted frame). Fail closed: every count
// is bounds-checked against the bytes actually present before its storage
// is allocated.
Result<WireRequest> DecodeRequestPayload(std::span<const uint8_t> payload);
Result<WireResponse> DecodeResponsePayload(std::span<const uint8_t> payload);

// The response QueryService hands back, projected into `mode`. The count
// is the response's computed one (kCount/kExists executions), else the
// number of its paths; kCount and kExists ship no paths (the summary plus
// the full degradation contract travel; the path flood does not).
WireResponse MakeWireResponse(const service::QueryResponse& response,
                              AnswerMode mode);

// A client-side degraded answer in the exact shape QueryService uses for
// sheds and infeasible deadlines: OK outcome, truncated-empty result,
// `status` in limit, snapshot_version 0.
WireResponse DegradedWireResponse(Status status, AnswerMode mode,
                                  uint64_t attempts);

}  // namespace mrpa::net

#endif  // MRPA_NET_WIRE_H_
