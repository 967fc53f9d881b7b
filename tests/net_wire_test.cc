// The wire codec's two promises, proven separately:
//
//   1. Round trip: for randomized requests and responses across every
//      answer mode, encode → extract → decode reproduces every field
//      exactly (the property suite).
//   2. Fail closed: for hostile byte streams — every-prefix truncation,
//      every single-bit flip, lying length fields and counts, oversized
//      frames, non-canonical payloads — decoding reports kNeedMore or
//      kCorruption, and a lying count is rejected against the bytes
//      actually present BEFORE its storage is allocated (the absurd-count
//      cases below would be multi-gigabyte allocations if they weren't;
//      the ASan job would flag them).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "gtest/gtest.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "storage/crc32c.h"
#include "util/random.h"
#include "util/status.h"

namespace mrpa::net {
namespace {

// --- Randomized builders ----------------------------------------------------

IdConstraint RandomConstraint(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return IdConstraint();
    case 1:
      return IdConstraint::Exactly(static_cast<uint32_t>(rng.Below(64)));
    default: {
      std::vector<uint32_t> ids;
      const size_t n = 1 + rng.Below(6);
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(static_cast<uint32_t>(rng.Below(64)));
      }
      return IdConstraint(std::move(ids), rng.Chance(0.3));
    }
  }
}

WireRequest RandomRequest(Rng& rng) {
  WireRequest request;
  const size_t tenant_len = rng.Below(12);
  for (size_t i = 0; i < tenant_len; ++i) {
    request.tenant.push_back(static_cast<char>('a' + rng.Below(26)));
  }
  request.kind = static_cast<service::QueryKind>(rng.Below(3));
  request.mode = static_cast<AnswerMode>(rng.Below(3));
  request.priority = static_cast<uint8_t>(rng.Below(256));
  const size_t steps = rng.Below(5);
  for (size_t i = 0; i < steps; ++i) {
    request.steps.emplace_back(RandomConstraint(rng), RandomConstraint(rng),
                               RandomConstraint(rng));
  }
  if (rng.Chance(0.5)) {
    request.limits.timeout = std::chrono::nanoseconds(rng.Below(1u << 30));
  }
  if (rng.Chance(0.5)) request.limits.max_paths = rng.Below(10000);
  if (rng.Chance(0.5)) request.limits.max_steps = rng.Below(10000);
  if (rng.Chance(0.5)) request.limits.max_bytes = rng.Below(1u << 20);
  if (rng.Chance(0.6)) request.deadline_micros = rng.Below(1u << 24);
  return request;
}

Status RandomStatus(Rng& rng, bool allow_ok) {
  const uint64_t code = rng.Below(allow_ok ? 12 : 11) + (allow_ok ? 0 : 1);
  std::string msg;
  const size_t len = rng.Below(20);
  for (size_t i = 0; i < len; ++i) {
    msg.push_back(static_cast<char>(' ' + rng.Below(94)));
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(msg);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(msg);
    case StatusCode::kIOError:
      return Status::IOError(msg);
    case StatusCode::kCorruption:
      return Status::Corruption(msg);
    case StatusCode::kInternal:
      return Status::Internal(msg);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case StatusCode::kCancelled:
      return Status::Cancelled(msg);
  }
  return Status::OK();
}

PathSet RandomPaths(Rng& rng) {
  std::vector<Path> paths;
  const size_t n = rng.Below(12);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Edge> edges;
    const size_t len = rng.Below(4);
    for (size_t j = 0; j < len; ++j) {
      edges.emplace_back(static_cast<VertexId>(rng.Below(16)),
                         static_cast<LabelId>(rng.Below(4)),
                         static_cast<VertexId>(rng.Below(16)));
    }
    paths.emplace_back(std::move(edges));
  }
  return PathSet(std::move(paths));  // Sorts + dedups into canonical order.
}

WireResponse RandomOkResponse(Rng& rng) {
  WireResponse response;
  response.truncated = rng.Chance(0.4);
  response.limit = response.truncated ? RandomStatus(rng, false) : Status::OK();
  response.snapshot_version = rng.Below(1000);
  response.attempts = 1 + rng.Below(4);
  response.stats.paths_yielded = rng.Below(500);
  response.stats.steps_expanded = rng.Below(5000);
  response.stats.bytes_charged = rng.Below(1u << 20);
  response.stats.elapsed_nanos = static_cast<int64_t>(rng.Below(1u << 30));
  response.stats.truncated = response.truncated;
  response.mode = static_cast<AnswerMode>(rng.Below(3));
  if (response.mode == AnswerMode::kPaths) {
    response.paths = RandomPaths(rng);
    response.count = response.paths.size();
    response.exists = !response.paths.empty();
  } else if (response.mode == AnswerMode::kCount) {
    response.count = rng.Below(1u << 20);
    response.exists = response.count > 0;
  } else {
    response.exists = rng.Chance(0.5);
    response.count = response.exists ? 1 : 0;
  }
  return response;
}

// Extracts the single frame in `frame` and returns its payload span.
std::span<const uint8_t> PayloadOf(const std::vector<uint8_t>& frame,
                                   FrameType want_type) {
  const ExtractResult extracted = ExtractFrame(frame);
  EXPECT_EQ(extracted.state, FrameState::kFrame) << extracted.error;
  EXPECT_EQ(extracted.header.type, want_type);
  EXPECT_EQ(extracted.frame_bytes, frame.size());
  return std::span<const uint8_t>(frame).subspan(
      kFrameHeaderBytes, frame.size() - kFrameHeaderBytes);
}

// --- Round trips ------------------------------------------------------------

TEST(NetWireTest, RequestRoundTripProperty) {
  Rng rng(0x51decade);
  for (int iter = 0; iter < 400; ++iter) {
    const WireRequest request = RandomRequest(rng);
    auto frame = EncodeRequestFrame(request);
    ASSERT_TRUE(frame.ok()) << frame.status();
    auto decoded = DecodeRequestPayload(PayloadOf(*frame, FrameType::kRequest));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->tenant, request.tenant);
    EXPECT_EQ(decoded->kind, request.kind);
    EXPECT_EQ(decoded->mode, request.mode);
    EXPECT_EQ(decoded->priority, request.priority);
    EXPECT_EQ(decoded->steps, request.steps);
    EXPECT_EQ(decoded->limits.timeout, request.limits.timeout);
    EXPECT_EQ(decoded->limits.max_paths, request.limits.max_paths);
    EXPECT_EQ(decoded->limits.max_steps, request.limits.max_steps);
    EXPECT_EQ(decoded->limits.max_bytes, request.limits.max_bytes);
    EXPECT_EQ(decoded->deadline_micros, request.deadline_micros);
  }
}

TEST(NetWireTest, ResponseRoundTripProperty) {
  Rng rng(0xdec0de);
  for (int iter = 0; iter < 400; ++iter) {
    const WireResponse response = RandomOkResponse(rng);
    auto frame = EncodeResponseFrame(response);
    ASSERT_TRUE(frame.ok()) << frame.status();
    auto decoded =
        DecodeResponsePayload(PayloadOf(*frame, FrameType::kResponse));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->outcome.ok());
    EXPECT_EQ(decoded->truncated, response.truncated);
    EXPECT_EQ(decoded->limit, response.limit);
    EXPECT_EQ(decoded->snapshot_version, response.snapshot_version);
    EXPECT_EQ(decoded->attempts, response.attempts);
    EXPECT_EQ(decoded->stats.paths_yielded, response.stats.paths_yielded);
    EXPECT_EQ(decoded->stats.steps_expanded, response.stats.steps_expanded);
    EXPECT_EQ(decoded->stats.bytes_charged, response.stats.bytes_charged);
    EXPECT_EQ(decoded->stats.elapsed_nanos, response.stats.elapsed_nanos);
    EXPECT_EQ(decoded->stats.truncated, response.stats.truncated);
    EXPECT_EQ(decoded->mode, response.mode);
    if (response.mode == AnswerMode::kPaths) {
      EXPECT_EQ(decoded->paths, response.paths);
      EXPECT_EQ(decoded->count, response.paths.size());
      EXPECT_EQ(decoded->exists, !response.paths.empty());
    } else if (response.mode == AnswerMode::kCount) {
      EXPECT_EQ(decoded->count, response.count);
      EXPECT_EQ(decoded->exists, response.count > 0);
      EXPECT_TRUE(decoded->paths.empty());  // Summaries carry no paths.
    } else {
      EXPECT_EQ(decoded->exists, response.exists);
      EXPECT_TRUE(decoded->paths.empty());
    }
  }
}

TEST(NetWireTest, ErrorOutcomeRoundTrip) {
  Rng rng(0xe44);
  for (int iter = 0; iter < 100; ++iter) {
    WireResponse response;
    response.outcome = RandomStatus(rng, false);
    auto frame = EncodeResponseFrame(response);
    ASSERT_TRUE(frame.ok()) << frame.status();
    auto decoded =
        DecodeResponsePayload(PayloadOf(*frame, FrameType::kResponse));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->outcome, response.outcome);
  }
}

TEST(NetWireTest, StreamingExtractionAcrossConcatenatedFrames) {
  Rng rng(0x57e0);
  // Three frames back to back in one buffer, as a socket would deliver
  // them: extraction peels them off front to front.
  std::vector<WireRequest> requests;
  std::vector<uint8_t> buffer;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(RandomRequest(rng));
    auto frame = EncodeRequestFrame(requests.back());
    ASSERT_TRUE(frame.ok());
    buffer.insert(buffer.end(), frame->begin(), frame->end());
  }
  size_t offset = 0;
  for (int i = 0; i < 3; ++i) {
    const std::span<const uint8_t> rest(buffer.data() + offset,
                                        buffer.size() - offset);
    const ExtractResult extracted = ExtractFrame(rest);
    ASSERT_EQ(extracted.state, FrameState::kFrame);
    auto decoded = DecodeRequestPayload(rest.subspan(
        kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tenant, requests[static_cast<size_t>(i)].tenant);
    offset += extracted.frame_bytes;
  }
  EXPECT_EQ(offset, buffer.size());
}

// --- Projection helpers -----------------------------------------------------

TEST(NetWireTest, MakeWireResponseProjectsModes) {
  service::QueryResponse executed;
  executed.result.paths = PathSet{Path({Edge(0, 0, 1)}),
                                  Path({Edge(1, 0, 2)})};
  executed.result.truncated = true;
  executed.result.limit = Status::ResourceExhausted("budget");
  executed.snapshot_version = 7;
  executed.attempts = 2;

  const WireResponse paths = MakeWireResponse(executed, AnswerMode::kPaths);
  EXPECT_EQ(paths.paths.size(), 2u);
  EXPECT_EQ(paths.count, 2u);
  EXPECT_TRUE(paths.exists);
  EXPECT_TRUE(paths.truncated);
  EXPECT_EQ(paths.snapshot_version, 7u);

  const WireResponse count = MakeWireResponse(executed, AnswerMode::kCount);
  EXPECT_TRUE(count.paths.empty());  // The flood stays home.
  EXPECT_EQ(count.count, 2u);
  EXPECT_TRUE(count.truncated);  // Truncation framing survives summaries.
  EXPECT_EQ(count.limit, executed.result.limit);

  const WireResponse exists = MakeWireResponse(executed, AnswerMode::kExists);
  EXPECT_TRUE(exists.paths.empty());
  EXPECT_TRUE(exists.exists);

  // A count/exists execution carries its computed count and no paths.
  service::QueryResponse counted;
  counted.count = uint64_t{1} << 40;
  counted.snapshot_version = 7;
  const WireResponse big = MakeWireResponse(counted, AnswerMode::kCount);
  EXPECT_EQ(big.count, uint64_t{1} << 40);
  EXPECT_TRUE(big.exists);
  const WireResponse hit = MakeWireResponse(counted, AnswerMode::kExists);
  EXPECT_EQ(hit.count, 1u);
  EXPECT_TRUE(hit.exists);
  counted.count = 0;
  EXPECT_FALSE(MakeWireResponse(counted, AnswerMode::kExists).exists);
}

TEST(NetWireTest, DegradedWireResponseMatchesShedShape) {
  const WireResponse shed = DegradedWireResponse(
      Status::ResourceExhausted("shed"), AnswerMode::kPaths, 3);
  EXPECT_TRUE(shed.outcome.ok());
  EXPECT_TRUE(shed.truncated);
  EXPECT_TRUE(shed.stats.truncated);
  EXPECT_TRUE(shed.limit.IsResourceExhausted());
  EXPECT_EQ(shed.snapshot_version, 0u);
  EXPECT_EQ(shed.attempts, 3u);
  EXPECT_TRUE(shed.paths.empty());
}

// --- Fail closed: framing ---------------------------------------------------

TEST(NetWireTest, EveryPrefixTruncationFailsClosed) {
  Rng rng(0x7fc);
  const WireRequest request = RandomRequest(rng);
  auto frame = EncodeRequestFrame(request);
  ASSERT_TRUE(frame.ok());
  for (size_t len = 0; len < frame->size(); ++len) {
    const ExtractResult extracted =
        ExtractFrame(std::span<const uint8_t>(frame->data(), len));
    EXPECT_NE(extracted.state, FrameState::kFrame)
        << "prefix of " << len << " bytes decoded as a whole frame";
  }
}

TEST(NetWireTest, EverySingleBitFlipFailsClosed) {
  Rng rng(0xb17f11b);
  auto frame = EncodeRequestFrame(RandomRequest(rng));
  ASSERT_TRUE(frame.ok());
  auto response_frame = EncodeResponseFrame(RandomOkResponse(rng));
  ASSERT_TRUE(response_frame.ok());
  for (std::vector<uint8_t>* target : {&*frame, &*response_frame}) {
    for (size_t byte = 0; byte < target->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        (*target)[byte] ^= static_cast<uint8_t>(1 << bit);
        const ExtractResult extracted = ExtractFrame(*target);
        // CRC-32C catches every single-bit flip; a flip in the length
        // field may instead leave the frame looking incomplete. Either
        // way: never a successfully extracted frame.
        EXPECT_NE(extracted.state, FrameState::kFrame)
            << "bit " << bit << " of byte " << byte;
        (*target)[byte] ^= static_cast<uint8_t>(1 << bit);
      }
    }
    // Un-flipped control: the frame extracts again.
    EXPECT_EQ(ExtractFrame(*target).state, FrameState::kFrame);
  }
}

TEST(NetWireTest, HostilePrefixRejectedAtTheEarliestByte) {
  const std::vector<uint8_t> garbage = {'G', 'E', 'T', ' ', '/', ' '};
  for (size_t len = 1; len <= garbage.size(); ++len) {
    const ExtractResult extracted =
        ExtractFrame(std::span<const uint8_t>(garbage.data(), len));
    EXPECT_EQ(extracted.state, FrameState::kError) << "at " << len;
  }
}

TEST(NetWireTest, OversizedDeclaredLengthRejectedFromHeaderAlone) {
  Rng rng(0x0b5);
  auto frame = EncodeRequestFrame(RandomRequest(rng));
  ASSERT_TRUE(frame.ok());
  // Rewrite the length field to something absurd. Only the 16 header bytes
  // are presented: the cap must fire before any payload is buffered.
  std::vector<uint8_t> header(frame->begin(),
                              frame->begin() + kFrameHeaderBytes);
  header[8] = 0xff;
  header[9] = 0xff;
  header[10] = 0xff;
  header[11] = 0x7f;
  const ExtractResult extracted = ExtractFrame(header);
  EXPECT_EQ(extracted.state, FrameState::kError);
  EXPECT_TRUE(extracted.error.IsCorruption());
}

TEST(NetWireTest, EncodersRefuseOverCapFrames) {
  WireRequest request;
  request.tenant = "tenant";
  request.steps.assign(8, EdgePattern::Any());
  auto frame = EncodeRequestFrame(request, /*max_frame_bytes=*/32);
  EXPECT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsResourceExhausted()) << frame.status();

  WireRequest fat_tenant;
  fat_tenant.tenant.assign(kMaxTenantBytes + 1, 'x');
  EXPECT_TRUE(EncodeRequestFrame(fat_tenant).status().IsInvalidArgument());

  WireRequest fat_chain;
  fat_chain.steps.assign(kMaxWireSteps + 1, EdgePattern::Any());
  EXPECT_TRUE(EncodeRequestFrame(fat_chain).status().IsInvalidArgument());
}

// --- Fail closed: payloads --------------------------------------------------

// A hand-built hostile payload: valid prologue, then a tenant length
// claiming 4 GiB with zero bytes behind it. A decoder that allocated from
// the count would die here; ours must reject against remaining().
TEST(NetWireTest, LyingTenantLengthRejectedBeforeAllocation) {
  std::vector<uint8_t> payload = {0, 0, 0, 0xff, 0xff, 0xff, 0xfe};
  auto decoded = DecodeRequestPayload(payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(NetWireTest, LyingConstraintCountRejectedBeforeAllocation) {
  // kind, mode, priority, tenant_len=0, no deadline (0,0u64),
  // 4 absent limits, steps=1, then a present constraint whose count claims
  // ~1 billion ids with no bytes behind it.
  std::vector<uint8_t> payload = {0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 5; ++i) {  // deadline + 4 limits, all absent.
    payload.push_back(0);
    for (int j = 0; j < 8; ++j) payload.push_back(0);
  }
  payload.push_back(1);  // steps (u16 LE)
  payload.push_back(0);
  payload.push_back(1);  // tail constraint: present
  payload.push_back(0x00);  // count = 0x40000000
  payload.push_back(0x00);
  payload.push_back(0x00);
  payload.push_back(0x40);
  auto decoded = DecodeRequestPayload(payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(NetWireTest, LyingStepCountRejectedAgainstRemainingBytes) {
  // Valid empty-ish prologue, then a step count of kMaxWireSteps with no
  // step bytes at all.
  std::vector<uint8_t> payload = {0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 5; ++i) {
    payload.push_back(0);
    for (int j = 0; j < 8; ++j) payload.push_back(0);
  }
  payload.push_back(static_cast<uint8_t>(kMaxWireSteps));
  payload.push_back(0);
  auto decoded = DecodeRequestPayload(payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(NetWireTest, TamperedLengthFieldWithFixedHeaderStillFailsPayload) {
  // A frame whose header is internally consistent (length patched AND the
  // whole frame re-CRC'd) but whose payload was truncated: extraction
  // succeeds — the frame is wire-level coherent — and the PAYLOAD decoder
  // must then fail closed on the underrun.
  Rng rng(0x11e);
  WireRequest request = RandomRequest(rng);
  request.steps = {EdgePattern::From(3)};  // Guarantee a non-empty tail.
  auto frame = EncodeRequestFrame(request);
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> cut(*frame);
  cut.resize(cut.size() - 2);  // Drop payload bytes,
  const uint32_t payload = static_cast<uint32_t>(cut.size()) -
                           static_cast<uint32_t>(kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {  // ...fix the length,
    cut[8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) cut[12 + static_cast<size_t>(i)] = 0;
  const uint32_t crc = storage::Crc32c(cut.data(), cut.size());
  for (int i = 0; i < 4; ++i) {  // ...and re-seal the checksum.
    cut[12 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  const ExtractResult extracted = ExtractFrame(cut);
  ASSERT_EQ(extracted.state, FrameState::kFrame);
  auto decoded = DecodeRequestPayload(std::span<const uint8_t>(cut).subspan(
      kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(NetWireTest, TrailingBytesRejected) {
  Rng rng(0x7a11);
  auto frame = EncodeRequestFrame(RandomRequest(rng));
  ASSERT_TRUE(frame.ok());
  // Extend the payload with junk, fix length + CRC: wire-coherent, but the
  // payload decoder must reject what it did not consume.
  std::vector<uint8_t> padded(*frame);
  padded.push_back(0xab);
  const uint32_t payload = static_cast<uint32_t>(padded.size()) -
                           static_cast<uint32_t>(kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    padded[8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) padded[12 + static_cast<size_t>(i)] = 0;
  const uint32_t crc = storage::Crc32c(padded.data(), padded.size());
  for (int i = 0; i < 4; ++i) {
    padded[12 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  const ExtractResult extracted = ExtractFrame(padded);
  ASSERT_EQ(extracted.state, FrameState::kFrame);
  auto decoded =
      DecodeRequestPayload(std::span<const uint8_t>(padded).subspan(
          kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(NetWireTest, NonCanonicalPathOrderRejected) {
  // Craft a response payload whose two paths arrive out of canonical
  // order. Encode a valid two-path response, then swap the two 16-byte
  // path records (each: u32 length=1 + one 12-byte edge) in place.
  WireResponse response;
  response.mode = AnswerMode::kPaths;
  response.paths = PathSet{Path({Edge(1, 0, 2)}), Path({Edge(3, 0, 4)})};
  response.count = 2;
  response.exists = true;
  auto frame = EncodeResponseFrame(response);
  ASSERT_TRUE(frame.ok());
  // Locate the path block: it is the last 4 + 2*16 bytes of the frame.
  const size_t block = frame->size() - (4 + 2 * 16);
  std::vector<uint8_t> swapped(*frame);
  for (size_t i = 0; i < 16; ++i) {
    std::swap(swapped[block + 4 + i], swapped[block + 4 + 16 + i]);
  }
  for (int i = 0; i < 4; ++i) swapped[12 + static_cast<size_t>(i)] = 0;
  const uint32_t crc = storage::Crc32c(swapped.data(), swapped.size());
  for (int i = 0; i < 4; ++i) {
    swapped[12 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  const ExtractResult extracted = ExtractFrame(swapped);
  ASSERT_EQ(extracted.state, FrameState::kFrame);
  auto decoded =
      DecodeResponsePayload(std::span<const uint8_t>(swapped).subspan(
          kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

}  // namespace
}  // namespace mrpa::net
