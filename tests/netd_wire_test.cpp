// Wire-protocol tests for the aapc_netd framing layer (netd/wire.hpp,
// docs/NETD.md): encode/decode round-trips, and the defensive paths —
// truncated headers, oversized declared lengths, bad magic, version
// mismatch, unknown types, trailing payload bytes, byte-by-byte
// delivery, and randomized garbage. Malformed input must throw
// ProtocolError (and poison the decoder); it must never crash, hang,
// or yield a half-parsed frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::netd {
namespace {

void patch_u8(std::string& bytes, std::size_t offset, std::uint8_t value) {
  bytes[offset] = static_cast<char>(value);
}

void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

RequestFrame sample_request() {
  RequestFrame request;
  request.request_id = 42;
  request.message_bytes = 64_KiB;
  request.tenant = "tenant-7";
  request.topology_text =
      topology::serialize_topology(topology::make_paper_figure1());
  return request;
}

/// Feeds a byte string and expects exactly one complete frame.
Frame decode_single(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  std::optional<Frame> frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  return *frame;
}

TEST(NetdWireTest, RequestRoundTrip) {
  const RequestFrame request = sample_request();
  const Frame frame = decode_single(encode_request(request));
  EXPECT_EQ(frame.header.type, FrameType::kRequest);
  EXPECT_EQ(frame.header.request_id, 42u);
  const RequestFrame decoded = decode_request(frame);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.message_bytes, request.message_bytes);
  EXPECT_EQ(decoded.tenant, request.tenant);
  EXPECT_EQ(decoded.topology_text, request.topology_text);
}

TEST(NetdWireTest, RequestV3RoundTripWithKindAndNeighbors) {
  RequestFrame request = sample_request();
  request.kind = core::CollectiveKind::kSparseAlltoall;
  request.neighbors = {{1, 2}, {0}, {0, 1}};
  const Frame frame = decode_single(encode_request(request));
  EXPECT_EQ(frame.header.version, kProtocolVersion);
  const RequestFrame decoded = decode_request(frame);
  EXPECT_EQ(decoded.kind, core::CollectiveKind::kSparseAlltoall);
  EXPECT_EQ(decoded.neighbors, request.neighbors);
  // Non-sparse kinds carry an empty neighbor block.
  for (const core::CollectiveKind kind :
       {core::CollectiveKind::kAlltoall, core::CollectiveKind::kAllgather,
        core::CollectiveKind::kReduceScatter}) {
    RequestFrame plain = sample_request();
    plain.kind = kind;
    const RequestFrame back = decode_request(decode_single(
        encode_request(plain)));
    EXPECT_EQ(back.kind, kind);
    EXPECT_TRUE(back.neighbors.empty());
  }
}

TEST(NetdWireTest, LegacyV2RequestDecodesAsAlltoall) {
  const std::string bytes = encode_request_v2(sample_request());
  const Frame frame = decode_single(bytes);
  EXPECT_EQ(frame.header.version, kLegacyProtocolVersion);
  const RequestFrame decoded = decode_request(frame);
  EXPECT_EQ(decoded.kind, core::CollectiveKind::kAlltoall);
  EXPECT_TRUE(decoded.neighbors.empty());
  EXPECT_EQ(decoded.tenant, "tenant-7");
  // The v2 layout cannot express any other kind.
  RequestFrame sparse = sample_request();
  sparse.kind = core::CollectiveKind::kAllgather;
  EXPECT_THROW((void)encode_request_v2(sparse), Error);
}

TEST(NetdWireTest, BadKindByteIsInvalidRequestNotStreamPoison) {
  // With an empty neighbor block the kind byte sits 8 bytes from the
  // end: u8 kind, u8 + u16 reserved, u32 set count (0).
  std::string bytes = encode_request(sample_request());
  patch_u8(bytes, bytes.size() - 8, 9);
  FrameDecoder decoder;
  decoder.feed(bytes);
  decoder.feed(encode_metrics_request(99));
  std::optional<Frame> bad = decoder.next();
  ASSERT_TRUE(bad.has_value());
  // A well-framed request with a garbage kind byte is a bad *request*,
  // not a torn stream: InvalidArgument, and the decoder keeps going.
  EXPECT_THROW((void)decode_request(*bad), InvalidArgument);
  std::optional<Frame> next = decoder.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->header.type, FrameType::kMetricsRequest);
  EXPECT_EQ(next->header.request_id, 99u);
}

TEST(NetdWireTest, NeighborBlockOnNonSparseKindRejected) {
  RequestFrame request = sample_request();
  request.kind = core::CollectiveKind::kSparseAlltoall;
  request.neighbors = {{1}, {0}};
  // encode_request refuses the combination up front...
  RequestFrame bad = request;
  bad.kind = core::CollectiveKind::kAllgather;
  EXPECT_THROW((void)encode_request(bad), Error);
  // ...so forge it on the wire: re-stamp the kind byte of a sparse
  // request that carries two singleton sets (tail: kind u8 + 3 reserved
  // bytes + count u32 + 2 x (degree u32 + 1 id u32) = 24 bytes).
  std::string bytes = encode_request(request);
  patch_u8(bytes, bytes.size() - 24,
           static_cast<std::uint8_t>(core::CollectiveKind::kAllgather));
  EXPECT_THROW((void)decode_request(decode_single(bytes)), InvalidArgument);
}

TEST(NetdWireTest, ResponseRoundTrip) {
  ResponseFrame response;
  response.request_id = 7;
  response.cache_hit = true;
  response.coalesced = false;
  response.stale = true;
  response.shard = 3;
  response.canonical_hash = 0xdeadbeefcafef00dull;
  response.epoch = 41;
  response.to_canonical = {2, 0, 1, 3};
  response.schedule_json = "{\"phases\":[]}";
  const ResponseFrame decoded =
      decode_response(decode_single(encode_response(response)));
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.coalesced);
  EXPECT_TRUE(decoded.stale);
  EXPECT_EQ(decoded.shard, 3u);
  EXPECT_EQ(decoded.canonical_hash, 0xdeadbeefcafef00dull);
  EXPECT_EQ(decoded.epoch, 41u);
  EXPECT_EQ(decoded.to_canonical, response.to_canonical);
  EXPECT_EQ(decoded.schedule_json, response.schedule_json);
}

void expect_same_response(const ResponseFrame& a, const ResponseFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.stale, b.stale);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.canonical_hash, b.canonical_hash);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.to_canonical, b.to_canonical);
  EXPECT_EQ(a.schedule_json, b.schedule_json);
}

// netd appends the schedule JSON to the frame through a callback; the
// frame must be the one the string encoder makes of the same JSON.
TEST(NetdWireTest, AppendingEncoderMatchesTheStringEncoder) {
  const topology::Topology fat_tree = topology::make_fat_tree(8, 4, 8);
  const std::int32_t n = fat_tree.machine_count();
  const core::Schedule schedule = core::build_aapc_schedule(fat_tree);
  std::vector<topology::Rank> to_canonical(static_cast<std::size_t>(n));
  for (topology::Rank r = 0; r < n; ++r) {
    to_canonical[static_cast<std::size_t>(r)] = r;
  }
  Rng rng(27);
  rng.shuffle(to_canonical);
  const std::vector<topology::Rank> to_caller =
      core::invert_permutation(to_canonical);

  ResponseFrame response;
  response.request_id = 11;
  response.cache_hit = true;
  response.coalesced = true;
  response.canonical_hash = 0x0123456789abcdefull;
  response.epoch = 2;
  const auto append_string = [&response](std::string& frame) {
    frame.append(response.schedule_json);
  };
  for (const std::string& json :
       {std::string(), std::string("{\"machines\":4,\"phases\":[]}")}) {
    response.schedule_json = json;
    const std::string expected = encode_response(response);
    EXPECT_EQ(encode_response(response, append_string), expected);
    expect_same_response(decode_response(decode_single(expected)), response);
  }

  // The served path: a 256-rank answer (0.6 MB) written in the frame.
  response.to_canonical = to_canonical;
  response.schedule_json = core::schedule_to_json(schedule, n, to_caller);
  ASSERT_GT(response.schedule_json.size(), 600'000u);
  const std::string expected = encode_response(response);
  ResponseFrame without_json = response;
  without_json.schedule_json.clear();
  const std::string appended =
      encode_response(without_json, [&](std::string& frame) {
        core::append_schedule_json(frame, schedule, n, to_caller);
      });
  EXPECT_EQ(appended, expected);
  expect_same_response(decode_response(decode_single(appended)), response);
}

TEST(NetdWireTest, ResponsePastMaxPayloadThrowsFromBothEncoders) {
  ResponseFrame response;
  response.to_canonical = {1, 0, 2};
  // The payload before the JSON: 24 bytes of fixed fields, the rank
  // count and three ranks, and the JSON's length.
  const std::size_t fixed = 24 + 4 + 4 * 3 + 4;
  const auto append_string = [&response](std::string& frame) {
    frame.append(response.schedule_json);
  };
  response.schedule_json.assign(kMaxPayload - fixed, 'x');
  EXPECT_EQ(encode_response(response).size(), kHeaderSize + kMaxPayload);
  EXPECT_EQ(encode_response(response, append_string).size(),
            kHeaderSize + kMaxPayload);
  response.schedule_json.push_back('x');
  EXPECT_THROW((void)encode_response(response), InvalidArgument);
  EXPECT_THROW((void)encode_response(response, append_string),
               InvalidArgument);
}

TEST(NetdWireTest, ChurnEventRoundTrip) {
  ChurnEventFrame event;
  event.request_id = 13;
  event.kind = ChurnKind::kLinkDegrade;
  event.link = 4;
  event.factor = 0.375;  // exact in binary: survives the bit-cast
  const Frame frame = decode_single(encode_churn_event(event));
  EXPECT_EQ(frame.header.type, FrameType::kChurnEvent);
  const ChurnEventFrame decoded = decode_churn_event(frame);
  EXPECT_EQ(decoded.request_id, 13u);
  EXPECT_EQ(decoded.kind, ChurnKind::kLinkDegrade);
  EXPECT_EQ(decoded.link, 4);
  EXPECT_EQ(decoded.factor, 0.375);
}

TEST(NetdWireTest, ChurnAckRoundTrip) {
  ChurnAckFrame ack;
  ack.request_id = 14;
  ack.epoch = 9;
  ack.invalidated = 3;
  ack.reelected = true;
  const ChurnAckFrame decoded =
      decode_churn_ack(decode_single(encode_churn_ack(ack)));
  EXPECT_EQ(decoded.request_id, 14u);
  EXPECT_EQ(decoded.epoch, 9u);
  EXPECT_EQ(decoded.invalidated, 3u);
  EXPECT_TRUE(decoded.reelected);
}

TEST(NetdWireTest, ChurnEventValidatesKindAndFactor) {
  ChurnEventFrame event;
  event.request_id = 1;
  event.kind = ChurnKind::kLinkDegrade;
  event.link = 0;
  event.factor = 0.5;
  // Unknown kind byte.
  {
    std::string bytes = encode_churn_event(event);
    patch_u8(bytes, kHeaderSize, 7);
    EXPECT_THROW((void)decode_churn_event(decode_single(bytes)),
                 ProtocolError);
  }
  // Factor outside [0, 1] and non-finite bit patterns.
  for (const double bad :
       {-0.25, 1.5, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    ChurnEventFrame invalid = event;
    invalid.factor = bad;
    EXPECT_THROW(
        (void)decode_churn_event(decode_single(encode_churn_event(invalid))),
        ProtocolError);
  }
}

TEST(NetdWireTest, ErrorRoundTrip) {
  ErrorFrame error;
  error.request_id = 9;
  error.code = ErrorCode::kOverloaded;
  error.retry_after_ms = 125;
  error.message = "compiler pool saturated";
  const ErrorFrame decoded =
      decode_error(decode_single(encode_error(error)));
  EXPECT_EQ(decoded.request_id, 9u);
  EXPECT_EQ(decoded.code, ErrorCode::kOverloaded);
  EXPECT_EQ(decoded.retry_after_ms, 125u);
  EXPECT_EQ(decoded.message, error.message);
}

TEST(NetdWireTest, MetricsRoundTrip) {
  const Frame request = decode_single(encode_metrics_request(11));
  EXPECT_EQ(request.header.type, FrameType::kMetricsRequest);
  EXPECT_EQ(request.header.request_id, 11u);
  EXPECT_EQ(request.header.payload_length, 0u);
  const std::string json = "{\"metrics\":[]}";
  EXPECT_EQ(decode_metrics_response(
                decode_single(encode_metrics_response(11, json))),
            json);
}

TEST(NetdWireTest, WrongFrameTypeForDecoderRejected) {
  const Frame frame = decode_single(encode_request(sample_request()));
  EXPECT_THROW((void)decode_response(frame), ProtocolError);
  EXPECT_THROW((void)decode_error(frame), ProtocolError);
  EXPECT_THROW((void)decode_metrics_response(frame), ProtocolError);
}

TEST(NetdWireTest, TruncatedHeaderWaitsForMoreBytes) {
  const std::string bytes = encode_request(sample_request());
  FrameDecoder decoder;
  decoder.feed(bytes.substr(0, kHeaderSize - 1));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), kHeaderSize - 1);
  // The remainder completes the frame; nothing was lost.
  decoder.feed(bytes.substr(kHeaderSize - 1));
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_request(*frame).tenant, "tenant-7");
}

TEST(NetdWireTest, ByteByByteDeliveryYieldsIntactFrames) {
  const RequestFrame request = sample_request();
  std::string stream = encode_request(request);
  stream += encode_metrics_request(43);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char byte : stream) {
    decoder.feed(std::string_view(&byte, 1));
    while (std::optional<Frame> frame = decoder.next()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(decode_request(frames[0]).topology_text, request.topology_text);
  EXPECT_EQ(frames[1].header.type, FrameType::kMetricsRequest);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetdWireTest, MidFrameStateIsVisible) {
  const std::string bytes = encode_request(sample_request());
  FrameDecoder decoder;
  decoder.feed(bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(decoder.next().has_value());
  // A peer hanging up now would be a mid-frame disconnect: the server
  // detects it exactly through buffered() > 0.
  EXPECT_GT(decoder.buffered(), 0u);
}

TEST(NetdWireTest, BadMagicPoisonsTheDecoder) {
  std::string bytes = encode_request(sample_request());
  patch_u8(bytes, 0, 0x00);
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_THROW((void)decoder.next(), ProtocolError);
  // The stream cannot be resynchronized: even valid bytes fed later
  // must keep failing rather than yield frames from a torn stream.
  decoder.feed(encode_metrics_request(1));
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(NetdWireTest, VersionMismatchRejected) {
  // Both a future version and the retired v1 (the response frame
  // changed shape in v2, so a v1 peer cannot be spoken to).
  for (const std::uint8_t version :
       {static_cast<std::uint8_t>(kProtocolVersion + 1),
        static_cast<std::uint8_t>(1)}) {
    std::string bytes = encode_request(sample_request());
    patch_u8(bytes, 4, version);
    FrameDecoder decoder;
    decoder.feed(bytes);
    try {
      (void)decoder.next();
      FAIL() << "expected ProtocolError for version " << int(version);
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(NetdWireTest, UnknownFrameTypeRejected) {
  std::string bytes = encode_request(sample_request());
  patch_u8(bytes, 5, 9);
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(NetdWireTest, OversizedDeclaredLengthRejectedBeforeBuffering) {
  std::string bytes = encode_request(sample_request());
  patch_u32(bytes, 16, kMaxPayload + 1);
  FrameDecoder decoder;
  // Only the header arrives; the decoder must reject from the declared
  // length alone instead of waiting to buffer 16 MiB + 1.
  decoder.feed(bytes.substr(0, kHeaderSize));
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(NetdWireTest, TrailingPayloadBytesRejected) {
  RequestFrame request = sample_request();
  std::string bytes = encode_request(request);
  bytes.push_back('\0');
  patch_u32(bytes, 16,
            static_cast<std::uint32_t>(bytes.size() - kHeaderSize));
  const Frame frame = decode_single(bytes);
  EXPECT_THROW((void)decode_request(frame), ProtocolError);
}

TEST(NetdWireTest, OverlongTenantRejected) {
  RequestFrame request = sample_request();
  request.tenant.assign(kMaxTenantLength + 1, 'x');
  const Frame frame = decode_single(encode_request(request));
  EXPECT_THROW((void)decode_request(frame), ProtocolError);
}

class NetdWireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetdWireFuzzTest, GarbageBytesNeverCrashTheDecoder) {
  Rng rng(GetParam() * 2654435761u + 3);
  for (int round = 0; round < 50; ++round) {
    FrameDecoder decoder;
    const std::size_t length = static_cast<std::size_t>(rng.next_in(1, 128));
    std::string bytes;
    bytes.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.next_below(256)));
    }
    // Occasionally lead with real magic so the fuzzer reaches the
    // version/type/length checks, not just the magic check.
    if (rng.next_below(2) == 0 && bytes.size() >= 4) {
      patch_u32(bytes, 0, kMagic);
    }
    try {
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const std::size_t chunk = std::min(
            bytes.size() - offset,
            static_cast<std::size_t>(rng.next_in(1, 16)));
        decoder.feed(std::string_view(bytes).substr(offset, chunk));
        offset += chunk;
        while (decoder.next().has_value()) {
        }
      }
    } catch (const ProtocolError&) {
      // Typed rejection is the expected outcome for garbage.
    }
  }
}

TEST_P(NetdWireFuzzTest, RandomPayloadsUnderValidHeadersNeverCrash) {
  Rng rng(GetParam() * 40503 + 5);
  for (int round = 0; round < 50; ++round) {
    Frame frame;
    frame.header.type =
        static_cast<FrameType>(1 + rng.next_below(7));
    frame.header.request_id = rng.next_u64();
    const std::size_t length = static_cast<std::size_t>(rng.next_in(0, 96));
    frame.payload.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      frame.payload.push_back(static_cast<char>(rng.next_below(256)));
    }
    frame.header.payload_length =
        static_cast<std::uint32_t>(frame.payload.size());
    try {
      switch (frame.header.type) {
        case FrameType::kRequest:
          (void)decode_request(frame);
          break;
        case FrameType::kResponse:
          (void)decode_response(frame);
          break;
        case FrameType::kError:
          (void)decode_error(frame);
          break;
        case FrameType::kMetricsResponse:
          (void)decode_metrics_response(frame);
          break;
        case FrameType::kChurnEvent:
          (void)decode_churn_event(frame);
          break;
        case FrameType::kChurnAck:
          (void)decode_churn_ack(frame);
          break;
        case FrameType::kMetricsRequest:
          break;  // no payload decoder
      }
    } catch (const ProtocolError&) {
      // Typed rejection, never a crash.
    } catch (const InvalidArgument&) {
      // decode_request: well-framed payload, semantically bad request
      // (garbage kind byte / neighbor block) — connection-preserving.
    }
  }
}

TEST_P(NetdWireFuzzTest, RandomV3KindAndNeighborBlocksNeverCrash) {
  Rng rng(GetParam() * 6364136223846793005ull + 11);
  const std::string topology_text =
      topology::serialize_topology(topology::make_single_switch(4));
  for (int round = 0; round < 100; ++round) {
    // A valid v2-shaped prefix followed by a randomized v3 tail: the
    // kind byte, reserved bytes, and neighbor block all take arbitrary
    // values. Decode must yield a request, InvalidArgument (bad kind,
    // misplaced neighbors), or ProtocolError (bounds/truncation) —
    // never a crash or hang.
    std::string bytes = encode_request_v2(sample_request());
    std::string tail;
    const std::size_t tail_length =
        static_cast<std::size_t>(rng.next_in(0, 40));
    for (std::size_t i = 0; i < tail_length; ++i) {
      tail.push_back(static_cast<char>(rng.next_below(256)));
    }
    bytes += tail;
    patch_u8(bytes, 4, kProtocolVersion);  // claim v3
    patch_u32(bytes, 16,
              static_cast<std::uint32_t>(bytes.size() - kHeaderSize));
    FrameDecoder decoder;
    decoder.feed(bytes);
    try {
      std::optional<Frame> frame = decoder.next();
      ASSERT_TRUE(frame.has_value());
      const RequestFrame decoded = decode_request(*frame);
      EXPECT_TRUE(core::collective_kind_valid(
          static_cast<std::uint8_t>(decoded.kind)));
    } catch (const ProtocolError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetdWireFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace aapc::netd
