// Wire protocol of the schedule-compilation front-end (aapc_netd).
//
// Compact length-prefixed binary frames, little-endian, versioned. A
// frame is a fixed 20-byte header followed by `payload_length` payload
// bytes; payload layouts are per frame type. The request carries the
// caller's topology serialized in the docs/FORMATS.md §1 text format
// and the response carries the relabeled schedule artifact as the §2
// JSON plus the caller->canonical rank permutation, so the wire
// preserves exactly the relabeling semantics of docs/SERVICE.md — a
// response is byte-identical to serializing the schedule an in-process
// ScheduleService::compile would have returned for the same topology
// and size class (asserted end-to-end by tests/netd_server_test.cpp).
//
// Framing is defensive: the decoder is incremental (frames may arrive
// byte-by-byte or many per read), rejects bad magic/version/type and
// oversized declared lengths before buffering a payload, and reports
// malformed frames as ProtocolError so the server can answer with a
// structured kProtocol error frame and close. Layout, error codes, and
// semantics are specified in docs/NETD.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::netd {

/// "AAPC" as bytes on the wire (read back as a little-endian u32).
inline constexpr std::uint32_t kMagic = 0x43504141u;
/// v3: request frames carry a collective kind byte and (for
/// sparse_alltoall) per-rank neighbor sets. v2 request frames are still
/// accepted and mean alltoall, and every non-request frame type keeps
/// its v2 layout and version byte, so v2 clients interoperate
/// unchanged. v1 peers are rejected at the header (the response layout
/// changed shape in v2, so speaking both is not possible on one
/// connection). History: docs/FORMATS.md §4.
inline constexpr std::uint8_t kProtocolVersion = 3;
/// Oldest version this build still accepts (and the version every
/// non-request frame is emitted at).
inline constexpr std::uint8_t kLegacyProtocolVersion = 2;
/// Fixed header size: magic u32, version u8, type u8, reserved u16,
/// request_id u64, payload_length u32.
inline constexpr std::size_t kHeaderSize = 20;
/// Upper bound on payload_length; larger declared lengths are a
/// protocol error rejected before any buffering (a hostile peer cannot
/// make the server allocate from a 4 GiB length field).
inline constexpr std::uint32_t kMaxPayload = 16u << 20;
/// Tenant ids are short identifiers, not documents.
inline constexpr std::size_t kMaxTenantLength = 256;

enum class FrameType : std::uint8_t {
  kRequest = 1,          // compile request
  kResponse = 2,         // compiled artifact
  kError = 3,            // structured failure, request-scoped
  kMetricsRequest = 4,   // ask for the server's registry snapshot
  kMetricsResponse = 5,  // obs JSON snapshot payload
  kChurnEvent = 6,       // physical link rate change (operator feed)
  kChurnAck = 7,         // epoch/invalidation accounting for the event
};

enum class ErrorCode : std::uint32_t {
  kInvalidRequest = 1,   // malformed topology / size / tenant
  kOverloaded = 2,       // dispatch queue full
  kQuotaExceeded = 3,    // tenant token bucket empty
  kConnectionLimit = 4,  // connection admission refused
  kShuttingDown = 5,     // server draining, resubmit elsewhere/later
  kInternal = 6,         // unexpected server-side failure
  kProtocol = 7,         // malformed frame; connection closes after this
};

/// Human-readable name of an error code ("overloaded", ...).
const char* error_code_name(ErrorCode code);

/// A malformed frame (bad magic, unsupported version, unknown type,
/// oversized declared payload, payload that fails to parse). The server
/// answers kProtocol and closes; the client surfaces it to the caller.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  /// Protocol version the frame was framed at (in
  /// [kLegacyProtocolVersion, kProtocolVersion]); payload decoders
  /// branch on it for layout.
  std::uint8_t version = kProtocolVersion;
  /// Echoed verbatim in the response/error frame, so clients may
  /// pipeline multiple requests per connection.
  std::uint64_t request_id = 0;
  std::uint32_t payload_length = 0;
};

/// One fully received frame.
struct Frame {
  FrameHeader header;
  std::string payload;
};

struct RequestFrame {
  std::uint64_t request_id = 0;
  /// Message size in bytes; the server buckets it into a size class.
  Bytes message_bytes = 0;
  /// Admission-control identity (token-bucket key).
  std::string tenant;
  /// docs/FORMATS.md §1 text serialization of the caller's topology.
  std::string topology_text;
  /// Collective to compile (v3 field; a decoded v2 frame always reads
  /// back alltoall).
  core::CollectiveKind kind = core::CollectiveKind::kAlltoall;
  /// Per-rank neighbor sets in the caller's ranks (sparse_alltoall
  /// only; must be empty for every other kind).
  core::SparseNeighbors neighbors;
};

struct ResponseFrame {
  std::uint64_t request_id = 0;
  bool cache_hit = false;
  bool coalesced = false;
  /// Kept in the v2 layout; the server always writes 0, since link
  /// events mark no cached answer (docs/SERVICE.md "Topology churn").
  bool stale = false;
  /// Kept in the v3 layout; the server, which has one backend service,
  /// always writes 0.
  std::uint32_t shard = 0;
  /// Canonical-topology hash (the cache key's identity; docs/SERVICE.md).
  std::uint64_t canonical_hash = 0;
  /// Topology epoch at serve time (bumps once per churn event).
  std::uint64_t epoch = 0;
  /// caller rank -> canonical rank of the shared artifact.
  std::vector<topology::Rank> to_canonical;
  /// docs/FORMATS.md §2 JSON of the schedule in the caller's labeling.
  std::string schedule_json;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kInternal;
  /// Backoff hint in milliseconds (0 = none): the dispatch queue's
  /// drain estimate for kOverloaded, the time until a token accrues
  /// for kQuotaExceeded.
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

enum class ChurnKind : std::uint8_t {
  kLinkDegrade = 1,  // residual factor in (0, 1)
  kLinkDown = 2,     // factor forced to 0 (triggers re-election)
  kLinkUp = 3,       // factor forced back to 1
};

/// Operator-driven link event against the server's bridge fabric:
/// `link` indexes the fabric's bridge links (stp::BridgeNetwork
/// ordering), `factor` the residual relative rate. The server trial-runs
/// the 802.1D re-election first and rejects events that would disconnect
/// the fabric, so a bad feed cannot wedge the serving state.
struct ChurnEventFrame {
  std::uint64_t request_id = 0;
  ChurnKind kind = ChurnKind::kLinkDegrade;
  std::int32_t link = -1;
  double factor = 1.0;
};

/// Accounting for one applied churn event.
struct ChurnAckFrame {
  std::uint64_t request_id = 0;
  /// Topology epoch after the event.
  std::uint64_t epoch = 0;
  /// Bound topologies routed over the event's link.
  std::uint64_t invalidated = 0;
  /// The event changed the elected spanning tree (the serving topology
  /// was re-bound to the new canonical hash).
  bool reelected = false;
};

// ---- encoding ----

std::string encode_request(const RequestFrame& request);
/// Legacy v2 request layout (no kind/neighbors block) — what a v2
/// client puts on the wire. Kept for interoperability tests; requires
/// an alltoall request with no neighbor sets.
std::string encode_request_v2(const RequestFrame& request);
/// The bytes of a response frame that come before its schedule JSON:
/// the header, the fixed fields, `to_canonical` and the JSON's length,
/// for a JSON of `json_bytes` bytes that the caller sends right after
/// them. netd sends each answer this way, then writes the JSON in
/// chunks, so no whole answer frame is built.
/// `response.schedule_json` is not read. Throws InvalidArgument when the
/// payload would exceed kMaxPayload.
std::string encode_response_prefix(const ResponseFrame& response,
                                   std::size_t json_bytes);
/// The whole frame: that prefix, then `response.schedule_json`.
std::string encode_response(const ResponseFrame& response);
/// A lower bound on the payload of any response to a `kind` request on
/// `ranks` machines, from the request alone: the fixed fields, the
/// permutation, and for every message its two labels and four
/// punctuation bytes. Alltoall, allgather and reduce_scatter make each
/// rank the source and the destination of n - 1 messages; for
/// sparse_alltoall the normalized neighbor sets give the messages.
/// netd refuses a request whose bound exceeds kMaxPayload before it
/// compiles anything. Throws InvalidArgument on malformed neighbor sets.
std::uint64_t response_payload_floor(std::int32_t ranks,
                                     core::CollectiveKind kind,
                                     const core::SparseNeighbors& neighbors);
std::string encode_error(const ErrorFrame& error);
std::string encode_metrics_request(std::uint64_t request_id);
std::string encode_metrics_response(std::uint64_t request_id,
                                    std::string_view json);
std::string encode_churn_event(const ChurnEventFrame& event);
std::string encode_churn_ack(const ChurnAckFrame& ack);

// ---- payload decoding (header already validated) ----

/// Decodes a v2 or v3 request frame (layout chosen by the header's
/// version). A syntactically well-formed v3 frame whose kind byte is
/// out of range, or that carries neighbor sets for a non-sparse kind,
/// throws InvalidArgument — a bad *request*, answerable with a
/// structured error frame — not ProtocolError, which would poison the
/// connection.
RequestFrame decode_request(const Frame& frame);
ResponseFrame decode_response(const Frame& frame);
ErrorFrame decode_error(const Frame& frame);
/// Returns the JSON payload of a kMetricsResponse frame.
std::string decode_metrics_response(const Frame& frame);
ChurnEventFrame decode_churn_event(const Frame& frame);
ChurnAckFrame decode_churn_ack(const Frame& frame);

/// Incremental frame decoder: feed() arbitrary byte chunks as they
/// arrive from the socket, next() yields complete frames in order.
/// Malformed input throws ProtocolError and poisons the decoder (the
/// connection is past saving — the stream cannot be resynchronized).
class FrameDecoder {
 public:
  /// Appends received bytes to the internal buffer.
  void feed(std::string_view bytes);

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed. Throws ProtocolError on bad magic/version/type or a
  /// payload_length above kMaxPayload.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames (a nonzero value at
  /// connection close means the peer hung up mid-frame).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

/// Parses and validates a frame header from exactly kHeaderSize bytes.
FrameHeader decode_header(std::string_view bytes);

}  // namespace aapc::netd
