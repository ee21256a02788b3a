#include "aapc/netd/wire.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "aapc/common/bytes.hpp"

namespace aapc::netd {

namespace {

/// Largest rank-permutation element count a response may declare.
/// Bounded by what fits in the payload anyway; checked explicitly so a
/// corrupt count fails with a clear message instead of a truncation.
constexpr std::uint32_t kMaxRanks = 1u << 20;

/// A frame header with payload_length 0. The encoder writes the payload
/// into the same buffer and finish_frame patches the length, so the
/// payload is never copied from a buffer of its own into the frame.
ByteWriter begin_frame(FrameType type, std::uint64_t request_id,
                       std::uint8_t version = kLegacyProtocolVersion) {
  ByteWriter w;
  w.u32(kMagic);
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  w.u64(request_id);
  w.u32(0);  // payload_length, patched by finish_frame
  return w;
}

/// Overwrites the little-endian u32 at `at`.
void patch_u32(std::string& frame, std::size_t at, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    frame[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

std::string finish_frame(std::string frame) {
  const std::size_t payload = frame.size() - kHeaderSize;
  AAPC_REQUIRE(payload <= kMaxPayload,
               "frame payload of " << payload << " bytes exceeds kMaxPayload");
  // payload_length is the header's last field.
  patch_u32(frame, kHeaderSize - 4, static_cast<std::uint32_t>(payload));
  return frame;
}

/// Re-throws payload parse failures as ProtocolError with context, so
/// transport callers only have to catch one type for malformed frames.
template <typename Fn>
auto parse_payload(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const Error& e) {
    throw ProtocolError(std::string("malformed ") + what + " payload: " +
                        e.what());
  }
}

void require_type(const Frame& frame, FrameType expected, const char* what) {
  if (frame.header.type != expected) {
    throw ProtocolError(std::string("expected a ") + what + " frame, got "
                        "type " +
                        std::to_string(static_cast<int>(frame.header.type)));
  }
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest:
      return "invalid_request";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kQuotaExceeded:
      return "quota_exceeded";
    case ErrorCode::kConnectionLimit:
      return "connection_limit";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kProtocol:
      return "protocol";
  }
  return "unknown";
}

std::string encode_request(const RequestFrame& request) {
  AAPC_REQUIRE(request.kind == core::CollectiveKind::kSparseAlltoall ||
                   request.neighbors.empty(),
               "neighbor sets are only meaningful for sparse_alltoall");
  ByteWriter w =
      begin_frame(FrameType::kRequest, request.request_id, kProtocolVersion);
  w.u64(request.message_bytes);
  w.str(request.tenant);
  w.str(request.topology_text);
  // v3 extension: kind byte + neighbor block (count 0 when non-sparse).
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.u8(0);  // reserved
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(request.neighbors.size()));
  for (const auto& set : request.neighbors) {
    w.u32(static_cast<std::uint32_t>(set.size()));
    for (const topology::Rank v : set) {
      w.u32(static_cast<std::uint32_t>(v));
    }
  }
  return finish_frame(w.take());
}

std::string encode_request_v2(const RequestFrame& request) {
  AAPC_REQUIRE(request.kind == core::CollectiveKind::kAlltoall &&
                   request.neighbors.empty(),
               "the v2 request layout can only express alltoall");
  ByteWriter w = begin_frame(FrameType::kRequest, request.request_id,
                             kLegacyProtocolVersion);
  w.u64(request.message_bytes);
  w.str(request.tenant);
  w.str(request.topology_text);
  return finish_frame(w.take());
}

std::string encode_response(
    const ResponseFrame& response,
    const std::function<void(std::string& frame)>& append_json) {
  ByteWriter w = begin_frame(FrameType::kResponse, response.request_id);
  // Everything before the JSON, so append_json's one growth of the
  // buffer is the only reallocation.
  w.reserve(kHeaderSize + 32 + 4 * response.to_canonical.size());
  w.u8(response.cache_hit ? 1 : 0);
  w.u8(response.coalesced ? 1 : 0);
  w.u8(response.stale ? 1 : 0);
  w.u8(0);  // reserved
  w.u32(response.shard);
  w.u64(response.canonical_hash);
  w.u64(response.epoch);
  w.u32(static_cast<std::uint32_t>(response.to_canonical.size()));
  for (const topology::Rank rank : response.to_canonical) {
    w.u32(static_cast<std::uint32_t>(rank));
  }
  w.u32(0);  // the JSON's length, patched once it is written
  std::string frame = w.take();
  const std::size_t json_begin = frame.size();
  append_json(frame);
  // A JSON too long for its u32 is past kMaxPayload, which finish_frame
  // rejects.
  patch_u32(frame, json_begin - 4,
            static_cast<std::uint32_t>(frame.size() - json_begin));
  return finish_frame(std::move(frame));
}

std::string encode_response(const ResponseFrame& response) {
  return encode_response(response, [&response](std::string& frame) {
    frame.append(response.schedule_json);
  });
}

std::string encode_error(const ErrorFrame& error) {
  ByteWriter w = begin_frame(FrameType::kError, error.request_id);
  w.u32(static_cast<std::uint32_t>(error.code));
  w.u32(error.retry_after_ms);
  w.str(error.message);
  return finish_frame(w.take());
}

std::string encode_metrics_request(std::uint64_t request_id) {
  return finish_frame(
      begin_frame(FrameType::kMetricsRequest, request_id).take());
}

std::string encode_metrics_response(std::uint64_t request_id,
                                    std::string_view json) {
  ByteWriter w = begin_frame(FrameType::kMetricsResponse, request_id);
  w.str(json);
  return finish_frame(w.take());
}

RequestFrame decode_request(const Frame& frame) {
  require_type(frame, FrameType::kRequest, "request");
  std::uint8_t raw_kind = 0;
  RequestFrame request = parse_payload("request", [&] {
    ByteReader r(frame.payload);
    RequestFrame req;
    req.request_id = frame.header.request_id;
    req.message_bytes = r.u64();
    req.tenant = r.str(kMaxTenantLength);
    req.topology_text = r.str(kMaxPayload);
    if (frame.header.version >= 3) {
      raw_kind = r.u8();
      (void)r.u8();  // reserved
      (void)r.u16();
      const std::uint32_t ranks = r.u32();
      if (ranks > kMaxRanks) {
        throw ProtocolError("request declares " + std::to_string(ranks) +
                            " neighbor sets, above the protocol bound");
      }
      req.neighbors.resize(ranks);
      for (std::uint32_t i = 0; i < ranks; ++i) {
        const std::uint32_t degree = r.u32();
        if (degree > ranks) {
          throw ProtocolError("neighbor set of rank " + std::to_string(i) +
                              " declares " + std::to_string(degree) +
                              " entries, above the rank count");
        }
        req.neighbors[i].reserve(degree);
        for (std::uint32_t j = 0; j < degree; ++j) {
          req.neighbors[i].push_back(static_cast<topology::Rank>(r.u32()));
        }
      }
    }
    r.expect_done("request payload");
    return req;
  });
  // Semantic validation runs outside parse_payload on purpose: a
  // well-framed request with a bad kind byte (or a neighbor block on a
  // non-sparse kind) is a bad *request* — the stream is intact, so the
  // server answers a structured kInvalidRequest and keeps the
  // connection, mirroring the churn-event validation. Truncation and
  // length-bound violations above still poison as ProtocolError.
  if (!core::collective_kind_valid(raw_kind)) {
    throw InvalidArgument("unknown collective kind byte " +
                          std::to_string(raw_kind));
  }
  request.kind = static_cast<core::CollectiveKind>(raw_kind);
  if (request.kind != core::CollectiveKind::kSparseAlltoall) {
    for (const auto& set : request.neighbors) {
      if (!set.empty()) {
        throw InvalidArgument(
            std::string("neighbor sets are only meaningful for "
                        "sparse_alltoall, not ") +
            core::collective_kind_name(request.kind));
      }
    }
    request.neighbors.clear();
  }
  return request;
}

ResponseFrame decode_response(const Frame& frame) {
  require_type(frame, FrameType::kResponse, "response");
  return parse_payload("response", [&] {
    ByteReader r(frame.payload);
    ResponseFrame response;
    response.request_id = frame.header.request_id;
    response.cache_hit = r.u8() != 0;
    response.coalesced = r.u8() != 0;
    response.stale = r.u8() != 0;
    (void)r.u8();  // reserved
    response.shard = r.u32();
    response.canonical_hash = r.u64();
    response.epoch = r.u64();
    const std::uint32_t ranks = r.u32();
    if (ranks > kMaxRanks) {
      throw ProtocolError("response declares " + std::to_string(ranks) +
                          " ranks, above the protocol bound");
    }
    response.to_canonical.reserve(ranks);
    for (std::uint32_t i = 0; i < ranks; ++i) {
      response.to_canonical.push_back(
          static_cast<topology::Rank>(r.u32()));
    }
    response.schedule_json = r.str(kMaxPayload);
    r.expect_done("response payload");
    return response;
  });
}

ErrorFrame decode_error(const Frame& frame) {
  require_type(frame, FrameType::kError, "error");
  return parse_payload("error", [&] {
    ByteReader r(frame.payload);
    ErrorFrame error;
    error.request_id = frame.header.request_id;
    const std::uint32_t code = r.u32();
    if (code < 1 || code > 7) {
      throw ProtocolError("unknown error code " + std::to_string(code));
    }
    error.code = static_cast<ErrorCode>(code);
    error.retry_after_ms = r.u32();
    error.message = r.str(kMaxPayload);
    r.expect_done("error payload");
    return error;
  });
}

std::string encode_churn_event(const ChurnEventFrame& event) {
  ByteWriter w = begin_frame(FrameType::kChurnEvent, event.request_id);
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.u8(0);  // reserved
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(event.link));
  // f64 crosses the wire as its IEEE-754 bit pattern in a u64.
  w.u64(std::bit_cast<std::uint64_t>(event.factor));
  return finish_frame(w.take());
}

std::string encode_churn_ack(const ChurnAckFrame& ack) {
  ByteWriter w = begin_frame(FrameType::kChurnAck, ack.request_id);
  w.u64(ack.epoch);
  w.u64(ack.invalidated);
  w.u8(ack.reelected ? 1 : 0);
  return finish_frame(w.take());
}

ChurnEventFrame decode_churn_event(const Frame& frame) {
  require_type(frame, FrameType::kChurnEvent, "churn event");
  return parse_payload("churn event", [&] {
    ByteReader r(frame.payload);
    ChurnEventFrame event;
    event.request_id = frame.header.request_id;
    const std::uint8_t kind = r.u8();
    if (kind < 1 || kind > 3) {
      throw ProtocolError("unknown churn kind " + std::to_string(kind));
    }
    event.kind = static_cast<ChurnKind>(kind);
    (void)r.u8();  // reserved
    (void)r.u16();
    event.link = static_cast<std::int32_t>(r.u32());
    event.factor = std::bit_cast<double>(r.u64());
    r.expect_done("churn event payload");
    if (!std::isfinite(event.factor) || event.factor < 0 ||
        event.factor > 1.0) {
      throw ProtocolError("churn factor must be a finite value in [0, 1]");
    }
    return event;
  });
}

ChurnAckFrame decode_churn_ack(const Frame& frame) {
  require_type(frame, FrameType::kChurnAck, "churn ack");
  return parse_payload("churn ack", [&] {
    ByteReader r(frame.payload);
    ChurnAckFrame ack;
    ack.request_id = frame.header.request_id;
    ack.epoch = r.u64();
    ack.invalidated = r.u64();
    ack.reelected = r.u8() != 0;
    r.expect_done("churn ack payload");
    return ack;
  });
}

std::string decode_metrics_response(const Frame& frame) {
  require_type(frame, FrameType::kMetricsResponse, "metrics response");
  return parse_payload("metrics response", [&] {
    ByteReader r(frame.payload);
    std::string json = r.str(kMaxPayload);
    r.expect_done("metrics response payload");
    return json;
  });
}

FrameHeader decode_header(std::string_view bytes) {
  AAPC_CHECK(bytes.size() == kHeaderSize);
  ByteReader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw ProtocolError("bad frame magic (got 0x" + [magic] {
      char buf[9];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + ", want 0x43504141); not an aapc_netd peer?");
  }
  const std::uint8_t version = r.u8();
  if (version < kLegacyProtocolVersion || version > kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version) + " (this build speaks " +
                        std::to_string(kLegacyProtocolVersion) + "-" +
                        std::to_string(kProtocolVersion) + ")");
  }
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 7) {
    throw ProtocolError("unknown frame type " + std::to_string(type));
  }
  (void)r.u16();  // reserved, ignored for forward compatibility
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.version = version;
  header.request_id = r.u64();
  header.payload_length = r.u32();
  if (header.payload_length > kMaxPayload) {
    throw ProtocolError("declared payload of " +
                        std::to_string(header.payload_length) +
                        " bytes exceeds the " +
                        std::to_string(kMaxPayload) + "-byte frame limit");
  }
  return header;
}

void FrameDecoder::feed(std::string_view bytes) {
  if (poisoned_) return;  // stream already unrecoverable
  // Compact once the consumed prefix dominates, so long-lived
  // connections do not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) {
    throw ProtocolError("frame stream already failed; connection is "
                        "unrecoverable");
  }
  if (buffered() < kHeaderSize) return std::nullopt;
  FrameHeader header;
  try {
    header = decode_header(
        std::string_view(buffer_).substr(consumed_, kHeaderSize));
  } catch (const ProtocolError&) {
    poisoned_ = true;
    throw;
  }
  if (buffered() < kHeaderSize + header.payload_length) return std::nullopt;
  Frame frame;
  frame.header = header;
  frame.payload =
      buffer_.substr(consumed_ + kHeaderSize, header.payload_length);
  consumed_ += kHeaderSize + header.payload_length;
  return frame;
}

}  // namespace aapc::netd
