#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "storage/crc32c.h"

namespace mrpa::net {

namespace {

constexpr uint8_t kMagic[4] = {'M', 'R', 'P', 'W'};
constexpr size_t kCrcOffset = 12;

void PutU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutBytes(std::vector<uint8_t>& out, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

// Optional u64 as (present, value) — nullopt travels as (0, 0).
void PutOptU64(std::vector<uint8_t>& out, const std::optional<uint64_t>& v) {
  PutU8(out, v.has_value() ? 1 : 0);
  PutU64(out, v.value_or(0));
}

// Sequential little-endian reader over a payload span. Every Read* returns
// false on underrun without touching the output; decoders translate a false
// into kCorruption. Nothing here allocates — allocation happens in the
// decoders, and only AFTER the relevant count has been validated against
// remaining().
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  bool ReadU8(uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  bool ReadU16(uint16_t& v) {
    if (remaining() < 2) return false;
    v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadOptU64(std::optional<uint64_t>& v) {
    uint8_t has = 0;
    uint64_t raw = 0;
    if (!ReadU8(has) || !ReadU64(raw)) return false;
    if (has > 1) return false;  // Non-canonical presence byte: hostile.
    if (has == 1) {
      v = raw;
    } else {
      if (raw != 0) return false;  // Absent fields travel as zero.
      v = std::nullopt;
    }
    return true;
  }
  // Validates `n` against remaining() and copies into `out` (which the
  // CALLER sizes only after this returns true via a prior remaining()
  // check; here the copy target is a string we resize ourselves, but only
  // once the bytes are known to be present).
  bool ReadString(size_t n, std::string& out) {
    if (remaining() < n) return false;
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("wire: ") + what);
}

// --- Status codes on the wire ----------------------------------------------

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kCancelled);
}

// Decodes (code, message) into `out`; the return value reports whether the
// pair itself was well-formed (Result<Status> would be ambiguous, hence the
// out-parameter).
Status MakeStatus(uint8_t code, std::string message, Status& out) {
  const StatusCode c = static_cast<StatusCode>(code);
  switch (c) {
    case StatusCode::kOk:
      if (!message.empty()) return Corrupt("OK status with a message");
      out = Status::OK();
      return Status::OK();
    case StatusCode::kInvalidArgument:
      out = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case StatusCode::kNotFound:
      out = Status::NotFound(std::move(message));
      return Status::OK();
    case StatusCode::kOutOfRange:
      out = Status::OutOfRange(std::move(message));
      return Status::OK();
    case StatusCode::kAlreadyExists:
      out = Status::AlreadyExists(std::move(message));
      return Status::OK();
    case StatusCode::kResourceExhausted:
      out = Status::ResourceExhausted(std::move(message));
      return Status::OK();
    case StatusCode::kUnimplemented:
      out = Status::Unimplemented(std::move(message));
      return Status::OK();
    case StatusCode::kIOError:
      out = Status::IOError(std::move(message));
      return Status::OK();
    case StatusCode::kCorruption:
      out = Status::Corruption(std::move(message));
      return Status::OK();
    case StatusCode::kInternal:
      out = Status::Internal(std::move(message));
      return Status::OK();
    case StatusCode::kDeadlineExceeded:
      out = Status::DeadlineExceeded(std::move(message));
      return Status::OK();
    case StatusCode::kCancelled:
      out = Status::Cancelled(std::move(message));
      return Status::OK();
  }
  return Corrupt("unknown status code");
}

Status PutStatus(std::vector<uint8_t>& out, const Status& status) {
  if (status.message().size() > kMaxStatusMessageBytes) {
    return Status::InvalidArgument("wire: status message exceeds cap");
  }
  PutU8(out, static_cast<uint8_t>(status.code()));
  PutU32(out, static_cast<uint32_t>(status.message().size()));
  PutBytes(out, status.message().data(), status.message().size());
  return Status::OK();
}

Status ReadStatus(Reader& r, Status& out) {
  uint8_t code = 0;
  uint32_t len = 0;
  if (!r.ReadU8(code) || !r.ReadU32(len)) return Corrupt("status underrun");
  if (!ValidStatusCode(code)) return Corrupt("unknown status code");
  if (len > kMaxStatusMessageBytes) return Corrupt("status message over cap");
  std::string message;
  if (!r.ReadString(len, message)) return Corrupt("status message underrun");
  return MakeStatus(code, std::move(message), out);
}

// --- IdConstraint / EdgePattern ---------------------------------------------

constexpr uint8_t kConstraintPresent = 1;
constexpr uint8_t kConstraintNegated = 2;

Status PutConstraint(std::vector<uint8_t>& out, const IdConstraint& c) {
  uint8_t flags = 0;
  if (!c.IsUnconstrained()) flags |= kConstraintPresent;
  if (c.negated()) flags |= kConstraintNegated;
  PutU8(out, flags);
  if (c.IsUnconstrained()) return Status::OK();
  const std::vector<uint32_t>& ids = *c.ids();
  if (ids.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("wire: constraint id set too large");
  }
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (uint32_t id : ids) PutU32(out, id);
  return Status::OK();
}

Result<IdConstraint> ReadConstraint(Reader& r) {
  uint8_t flags = 0;
  if (!r.ReadU8(flags)) return Corrupt("constraint underrun");
  if ((flags & ~(kConstraintPresent | kConstraintNegated)) != 0) {
    return Corrupt("constraint flags");
  }
  const bool negated = (flags & kConstraintNegated) != 0;
  if ((flags & kConstraintPresent) == 0) {
    if (negated) return Corrupt("negated unconstrained position");
    return IdConstraint();
  }
  uint32_t count = 0;
  if (!r.ReadU32(count)) return Corrupt("constraint count underrun");
  // The fail-closed gate: a lying count is rejected against the bytes that
  // are actually present BEFORE the id vector is allocated.
  if (static_cast<size_t>(count) * 4 > r.remaining()) {
    return Corrupt("constraint count exceeds payload");
  }
  std::vector<uint32_t> ids(count);
  for (uint32_t& id : ids) {
    if (!r.ReadU32(id)) return Corrupt("constraint ids underrun");
  }
  return IdConstraint(std::move(ids), negated);
}

// --- ExecLimits -------------------------------------------------------------

void PutLimits(std::vector<uint8_t>& out, const ExecLimits& limits) {
  std::optional<uint64_t> timeout;
  if (limits.timeout.has_value()) {
    timeout = static_cast<uint64_t>(
        std::max<int64_t>(0, limits.timeout->count()));
  }
  PutOptU64(out, timeout);
  PutOptU64(out, limits.max_paths);
  PutOptU64(out, limits.max_steps);
  PutOptU64(out, limits.max_bytes);
}

Result<ExecLimits> ReadLimits(Reader& r) {
  std::optional<uint64_t> timeout, paths, steps, bytes;
  if (!r.ReadOptU64(timeout) || !r.ReadOptU64(paths) ||
      !r.ReadOptU64(steps) || !r.ReadOptU64(bytes)) {
    return Corrupt("limits underrun");
  }
  ExecLimits limits;
  if (timeout.has_value()) {
    if (*timeout > static_cast<uint64_t>(
                       std::numeric_limits<int64_t>::max())) {
      return Corrupt("timeout overflows");
    }
    limits.timeout = std::chrono::nanoseconds(static_cast<int64_t>(*timeout));
  }
  auto size_limit = [](const std::optional<uint64_t>& v,
                       std::optional<size_t>& out_limit) {
    if (v.has_value()) out_limit = static_cast<size_t>(*v);
  };
  size_limit(paths, limits.max_paths);
  size_limit(steps, limits.max_steps);
  size_limit(bytes, limits.max_bytes);
  return limits;
}

// --- Framing ----------------------------------------------------------------

Result<std::vector<uint8_t>> SealFrame(FrameType type,
                                       std::vector<uint8_t> frame,
                                       size_t max_frame_bytes) {
  // `frame` arrives with kFrameHeaderBytes of zeros reserved up front.
  if (frame.size() > max_frame_bytes) {
    return Status::ResourceExhausted(
        "wire: frame of " + std::to_string(frame.size()) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte cap");
  }
  const size_t payload = frame.size() - kFrameHeaderBytes;
  std::memcpy(frame.data(), kMagic, 4);
  frame[4] = kWireVersion;
  frame[5] = static_cast<uint8_t>(type);
  frame[6] = 0;
  frame[7] = 0;
  for (int i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<uint8_t>(payload >> (8 * i));
  }
  // CRC over the whole frame with the CRC field itself zeroed (it is).
  const uint32_t crc = storage::Crc32c(frame.data(), frame.size());
  for (int i = 0; i < 4; ++i) {
    frame[kCrcOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return frame;
}

}  // namespace

ExtractResult ExtractFrame(std::span<const uint8_t> buffer,
                           size_t max_frame_bytes) {
  ExtractResult result;
  // Validate the fixed prefix byte-by-byte as it arrives, so a hostile
  // stream is rejected at the earliest byte that cannot be a frame.
  const size_t prefix = std::min(buffer.size(), size_t{4});
  for (size_t i = 0; i < prefix; ++i) {
    if (buffer[i] != kMagic[i]) {
      result.state = FrameState::kError;
      result.error = Corrupt("bad magic");
      return result;
    }
  }
  if (buffer.size() >= 5 && buffer[4] != kWireVersion) {
    result.state = FrameState::kError;
    result.error = Corrupt("unsupported wire version");
    return result;
  }
  if (buffer.size() >= 6 &&
      buffer[5] != static_cast<uint8_t>(FrameType::kRequest) &&
      buffer[5] != static_cast<uint8_t>(FrameType::kResponse)) {
    result.state = FrameState::kError;
    result.error = Corrupt("unknown frame type");
    return result;
  }
  if (buffer.size() >= 8 && (buffer[6] != 0 || buffer[7] != 0)) {
    result.state = FrameState::kError;
    result.error = Corrupt("reserved flags set");
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes) {
    result.state = FrameState::kNeedMore;
    return result;
  }
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= static_cast<uint32_t>(buffer[8 + i]) << (8 * i);
  }
  // The length gate fires with only the header present: an attacker cannot
  // make the peer buffer (or allocate) more than the cap.
  if (static_cast<uint64_t>(payload) + kFrameHeaderBytes > max_frame_bytes) {
    result.state = FrameState::kError;
    result.error = Corrupt("frame length exceeds cap");
    return result;
  }
  const size_t frame_bytes = kFrameHeaderBytes + payload;
  if (buffer.size() < frame_bytes) {
    result.state = FrameState::kNeedMore;
    return result;
  }
  uint32_t declared = 0;
  for (int i = 0; i < 4; ++i) {
    declared |= static_cast<uint32_t>(buffer[kCrcOffset + i]) << (8 * i);
  }
  // Re-derive the CRC with the checksum field zeroed, without copying the
  // frame: CRC the prefix, extend over four zero bytes, extend over the
  // rest.
  uint32_t crc = storage::Crc32c(buffer.data(), kCrcOffset);
  const uint8_t zeros[4] = {0, 0, 0, 0};
  crc = storage::Crc32cExtend(crc, zeros, 4);
  crc = storage::Crc32cExtend(crc, buffer.data() + kFrameHeaderBytes,
                              frame_bytes - kFrameHeaderBytes);
  if (crc != declared) {
    result.state = FrameState::kError;
    result.error = Corrupt("frame checksum mismatch");
    return result;
  }
  result.state = FrameState::kFrame;
  result.header.type = static_cast<FrameType>(buffer[5]);
  result.header.payload_bytes = payload;
  result.frame_bytes = frame_bytes;
  return result;
}

Result<std::vector<uint8_t>> EncodeRequestFrame(const WireRequest& request,
                                                size_t max_frame_bytes) {
  if (request.tenant.size() > kMaxTenantBytes) {
    return Status::InvalidArgument("wire: tenant name exceeds cap");
  }
  if (request.steps.size() > kMaxWireSteps) {
    return Status::InvalidArgument("wire: step chain exceeds cap");
  }
  if (static_cast<uint8_t>(request.kind) >
      static_cast<uint8_t>(service::QueryKind::kChainBackward)) {
    return Status::InvalidArgument("wire: unknown query kind");
  }
  if (static_cast<uint8_t>(request.mode) >
      static_cast<uint8_t>(AnswerMode::kExists)) {
    return Status::InvalidArgument("wire: unknown answer mode");
  }
  std::vector<uint8_t> frame(kFrameHeaderBytes, 0);
  PutU8(frame, static_cast<uint8_t>(request.kind));
  PutU8(frame, static_cast<uint8_t>(request.mode));
  PutU8(frame, request.priority);
  PutU32(frame, static_cast<uint32_t>(request.tenant.size()));
  PutBytes(frame, request.tenant.data(), request.tenant.size());
  PutOptU64(frame, request.deadline_micros);
  PutLimits(frame, request.limits);
  PutU16(frame, static_cast<uint16_t>(request.steps.size()));
  for (const EdgePattern& step : request.steps) {
    MRPA_RETURN_IF_ERROR(PutConstraint(frame, step.tail()));
    MRPA_RETURN_IF_ERROR(PutConstraint(frame, step.label()));
    MRPA_RETURN_IF_ERROR(PutConstraint(frame, step.head()));
  }
  return SealFrame(FrameType::kRequest, std::move(frame), max_frame_bytes);
}

Result<WireRequest> DecodeRequestPayload(std::span<const uint8_t> payload) {
  Reader r(payload);
  WireRequest request;
  uint8_t kind = 0, mode = 0;
  if (!r.ReadU8(kind) || !r.ReadU8(mode) || !r.ReadU8(request.priority)) {
    return Corrupt("request prologue underrun");
  }
  if (kind > static_cast<uint8_t>(service::QueryKind::kChainBackward)) {
    return Corrupt("unknown query kind");
  }
  if (mode > static_cast<uint8_t>(AnswerMode::kExists)) {
    return Corrupt("unknown answer mode");
  }
  request.kind = static_cast<service::QueryKind>(kind);
  request.mode = static_cast<AnswerMode>(mode);
  uint32_t tenant_len = 0;
  if (!r.ReadU32(tenant_len)) return Corrupt("tenant length underrun");
  if (tenant_len > kMaxTenantBytes) return Corrupt("tenant name over cap");
  if (!r.ReadString(tenant_len, request.tenant)) {
    return Corrupt("tenant underrun");
  }
  if (!r.ReadOptU64(request.deadline_micros)) {
    return Corrupt("deadline underrun");
  }
  Result<ExecLimits> limits = ReadLimits(r);
  if (!limits.ok()) return limits.status();
  request.limits = *limits;
  uint16_t num_steps = 0;
  if (!r.ReadU16(num_steps)) return Corrupt("step count underrun");
  if (num_steps > kMaxWireSteps) return Corrupt("step chain over cap");
  // Cheapest possible step is 3 one-byte unconstrained positions.
  if (static_cast<size_t>(num_steps) * 3 > r.remaining()) {
    return Corrupt("step count exceeds payload");
  }
  request.steps.reserve(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    Result<IdConstraint> tail = ReadConstraint(r);
    if (!tail.ok()) return tail.status();
    Result<IdConstraint> label = ReadConstraint(r);
    if (!label.ok()) return label.status();
    Result<IdConstraint> head = ReadConstraint(r);
    if (!head.ok()) return head.status();
    request.steps.emplace_back(std::move(*tail), std::move(*label),
                               std::move(*head));
  }
  if (!r.exhausted()) return Corrupt("trailing bytes after request");
  return request;
}

Result<std::vector<uint8_t>> EncodeResponseFrame(const WireResponse& response,
                                                 size_t max_frame_bytes) {
  std::vector<uint8_t> frame(kFrameHeaderBytes, 0);
  MRPA_RETURN_IF_ERROR(PutStatus(frame, response.outcome));
  if (response.outcome.ok()) {
    if (static_cast<uint8_t>(response.mode) >
        static_cast<uint8_t>(AnswerMode::kExists)) {
      return Status::InvalidArgument("wire: unknown answer mode");
    }
    PutU8(frame, response.truncated ? 1 : 0);
    MRPA_RETURN_IF_ERROR(PutStatus(frame, response.limit));
    PutU64(frame, response.snapshot_version);
    PutU64(frame, response.attempts);
    PutU64(frame, response.stats.paths_yielded);
    PutU64(frame, response.stats.steps_expanded);
    PutU64(frame, response.stats.bytes_charged);
    PutU64(frame, static_cast<uint64_t>(response.stats.elapsed_nanos));
    PutU8(frame, response.stats.truncated ? 1 : 0);
    PutU8(frame, static_cast<uint8_t>(response.mode));
    switch (response.mode) {
      case AnswerMode::kPaths: {
        if (response.paths.size() > std::numeric_limits<uint32_t>::max()) {
          return Status::ResourceExhausted("wire: path set too large");
        }
        PutU32(frame, static_cast<uint32_t>(response.paths.size()));
        for (const Path& path : response.paths) {
          if (path.length() > std::numeric_limits<uint32_t>::max()) {
            return Status::ResourceExhausted("wire: path too long");
          }
          PutU32(frame, static_cast<uint32_t>(path.length()));
          for (const Edge& e : path) {
            PutU32(frame, e.tail);
            PutU32(frame, e.label);
            PutU32(frame, e.head);
          }
        }
        break;
      }
      case AnswerMode::kCount:
        PutU64(frame, response.count);
        break;
      case AnswerMode::kExists:
        PutU8(frame, response.exists ? 1 : 0);
        break;
    }
  }
  return SealFrame(FrameType::kResponse, std::move(frame), max_frame_bytes);
}

Result<WireResponse> DecodeResponsePayload(std::span<const uint8_t> payload) {
  Reader r(payload);
  WireResponse response;
  MRPA_RETURN_IF_ERROR(ReadStatus(r, response.outcome));
  if (!response.outcome.ok()) {
    if (!r.exhausted()) return Corrupt("trailing bytes after error response");
    return response;
  }
  uint8_t truncated = 0;
  if (!r.ReadU8(truncated)) return Corrupt("response underrun");
  if (truncated > 1) return Corrupt("non-boolean truncation flag");
  response.truncated = truncated == 1;
  MRPA_RETURN_IF_ERROR(ReadStatus(r, response.limit));
  uint64_t paths_yielded = 0, steps_expanded = 0, bytes_charged = 0;
  uint64_t elapsed = 0;
  uint8_t stats_truncated = 0, mode = 0;
  if (!r.ReadU64(response.snapshot_version) || !r.ReadU64(response.attempts) ||
      !r.ReadU64(paths_yielded) || !r.ReadU64(steps_expanded) ||
      !r.ReadU64(bytes_charged) || !r.ReadU64(elapsed) ||
      !r.ReadU8(stats_truncated) || !r.ReadU8(mode)) {
    return Corrupt("response underrun");
  }
  if (stats_truncated > 1) return Corrupt("non-boolean stats flag");
  response.stats.paths_yielded = static_cast<size_t>(paths_yielded);
  response.stats.steps_expanded = static_cast<size_t>(steps_expanded);
  response.stats.bytes_charged = static_cast<size_t>(bytes_charged);
  response.stats.elapsed_nanos = static_cast<int64_t>(elapsed);
  response.stats.truncated = stats_truncated == 1;
  if (mode > static_cast<uint8_t>(AnswerMode::kExists)) {
    return Corrupt("unknown answer mode");
  }
  response.mode = static_cast<AnswerMode>(mode);
  switch (response.mode) {
    case AnswerMode::kPaths: {
      uint32_t num_paths = 0;
      if (!r.ReadU32(num_paths)) return Corrupt("path count underrun");
      // Cheapest possible path on the wire is its 4-byte length prefix.
      if (static_cast<size_t>(num_paths) * 4 > r.remaining()) {
        return Corrupt("path count exceeds payload");
      }
      std::vector<Path> paths;
      paths.reserve(num_paths);
      for (size_t i = 0; i < num_paths; ++i) {
        uint32_t len = 0;
        if (!r.ReadU32(len)) return Corrupt("path length underrun");
        if (static_cast<size_t>(len) * 12 > r.remaining()) {
          return Corrupt("path length exceeds payload");
        }
        std::vector<Edge> edges(len);
        for (Edge& e : edges) {
          if (!r.ReadU32(e.tail) || !r.ReadU32(e.label) ||
              !r.ReadU32(e.head)) {
            return Corrupt("edge underrun");
          }
        }
        Path path(std::move(edges));
        // Canonical order is part of the contract (it is what the
        // differential harness byte-compares); a peer violating it is
        // hostile, not merely unsorted.
        if (!paths.empty() && !(paths.back() < path)) {
          return Corrupt("paths out of canonical order");
        }
        paths.push_back(std::move(path));
      }
      response.paths = PathSet::FromSortedUnique(std::move(paths));
      response.count = response.paths.size();
      response.exists = !response.paths.empty();
      break;
    }
    case AnswerMode::kCount: {
      if (!r.ReadU64(response.count)) return Corrupt("count underrun");
      response.exists = response.count > 0;
      break;
    }
    case AnswerMode::kExists: {
      uint8_t exists = 0;
      if (!r.ReadU8(exists)) return Corrupt("exists underrun");
      if (exists > 1) return Corrupt("non-boolean exists flag");
      response.exists = exists == 1;
      response.count = exists;
      break;
    }
  }
  if (!r.exhausted()) return Corrupt("trailing bytes after response");
  return response;
}

WireResponse MakeWireResponse(const service::QueryResponse& response,
                              AnswerMode mode) {
  WireResponse wire;
  wire.truncated = response.result.truncated;
  wire.limit = response.result.limit;
  wire.snapshot_version = response.snapshot_version;
  wire.attempts = response.attempts;
  wire.stats = response.result.stats;
  wire.mode = mode;
  const uint64_t count =
      response.count.value_or(response.result.paths.size());
  wire.exists = count > 0;
  // The count is mode-faithful: kExists ships one bit, so the projected
  // count collapses with it — what this helper returns is exactly what a
  // client decodes after the round trip.
  wire.count = mode == AnswerMode::kExists ? (wire.exists ? 1 : 0) : count;
  if (mode == AnswerMode::kPaths) wire.paths = response.result.paths;
  return wire;
}

WireResponse DegradedWireResponse(Status status, AnswerMode mode,
                                  uint64_t attempts) {
  WireResponse wire;
  wire.truncated = true;
  wire.stats.truncated = true;
  wire.limit = std::move(status);
  wire.mode = mode;
  wire.attempts = attempts;
  return wire;
}

}  // namespace mrpa::net
