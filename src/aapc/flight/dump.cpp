#include "aapc/flight/dump.hpp"

#include <bit>
#include <fstream>
#include <sstream>

#include "aapc/common/bytes.hpp"
#include "aapc/common/error.hpp"

namespace aapc::flight {

namespace {

// Sanity ceilings for decode: a header claiming more implies corruption
// (the executor tops out orders of magnitude below both). A ring
// capacity is checked against Ring's own limit, kMaxRingCapacity.
constexpr std::uint32_t kMaxRanks = 1u << 20;
constexpr std::size_t kMaxLabel = 4096;

}  // namespace

FlightDump snapshot(const Recorder& recorder, std::string label) {
  FlightDump dump;
  dump.meta.rank_count = recorder.rank_count();
  dump.meta.ring_capacity = recorder.ring_capacity();
  dump.meta.sync_tag_base = Recorder::kSyncTagBase;
  dump.meta.run = recorder.run;
  dump.meta.label = std::move(label);
  dump.ranks.resize(static_cast<std::size_t>(recorder.rank_count()));
  for (std::int32_t r = 0; r < recorder.rank_count(); ++r) {
    RankLog& log = dump.ranks[static_cast<std::size_t>(r)];
    log.dropped = recorder.snapshot_rank(r, log.events);
  }
  return dump;
}

std::string encode_dump(const FlightDump& dump) {
  ByteWriter w;
  w.u64(kDumpMagic);
  w.u16(kDumpVersion);
  w.u32(static_cast<std::uint32_t>(dump.meta.rank_count));
  w.u32(dump.meta.ring_capacity);
  const RunContext& run = dump.meta.run;
  w.u8(run.backend);
  w.u32(static_cast<std::uint32_t>(dump.meta.sync_tag_base));
  w.u64(std::bit_cast<std::uint64_t>(run.effective_bandwidth));
  w.u64(std::bit_cast<std::uint64_t>(run.send_overhead));
  w.u64(std::bit_cast<std::uint64_t>(run.recv_overhead));
  w.u64(std::bit_cast<std::uint64_t>(run.completion_time));
  w.u64(static_cast<std::uint64_t>(run.retransmissions));
  w.u64(static_cast<std::uint64_t>(run.segments_lost));
  w.str(dump.meta.label);
  AAPC_REQUIRE(dump.ranks.size() ==
                   static_cast<std::size_t>(dump.meta.rank_count),
               "flight dump has " << dump.ranks.size() << " rank logs for "
                                  << dump.meta.rank_count << " ranks");
  for (const RankLog& log : dump.ranks) {
    w.u64(log.dropped);
    w.u32(static_cast<std::uint32_t>(log.events.size()));
    for (const Event& e : log.events) {
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u32(static_cast<std::uint32_t>(e.peer));
      w.u32(static_cast<std::uint32_t>(e.tag));
      w.u64(static_cast<std::uint64_t>(e.bytes));
      w.u64(std::bit_cast<std::uint64_t>(e.time));
      w.u64(std::bit_cast<std::uint64_t>(e.aux));
    }
  }
  return w.take();
}

FlightDump decode_dump(std::string_view bytes) {
  ByteReader r(bytes);
  const std::uint64_t magic = r.u64();
  AAPC_REQUIRE(magic == kDumpMagic,
               "flight dump: bad magic 0x" << std::hex << magic);
  const std::uint16_t version = r.u16();
  AAPC_REQUIRE(version == kDumpVersion,
               "flight dump: unsupported version " << version << " (want "
                                                   << kDumpVersion << ")");
  FlightDump dump;
  const std::uint32_t rank_count = r.u32();
  AAPC_REQUIRE(rank_count <= kMaxRanks,
               "flight dump: implausible rank count " << rank_count);
  dump.meta.rank_count = static_cast<std::int32_t>(rank_count);
  dump.meta.ring_capacity = r.u32();
  AAPC_REQUIRE(dump.meta.ring_capacity <= kMaxRingCapacity,
               "flight dump: implausible ring capacity "
                   << dump.meta.ring_capacity);
  RunContext& run = dump.meta.run;
  run.backend = r.u8();
  AAPC_REQUIRE(run.backend <= 1, "flight dump: unknown backend "
                                     << static_cast<int>(run.backend));
  dump.meta.sync_tag_base = static_cast<std::int32_t>(r.u32());
  AAPC_REQUIRE(dump.meta.sync_tag_base > 0,
               "flight dump: sync_tag_base must be positive");
  run.effective_bandwidth = std::bit_cast<double>(r.u64());
  run.send_overhead = std::bit_cast<double>(r.u64());
  run.recv_overhead = std::bit_cast<double>(r.u64());
  run.completion_time = std::bit_cast<double>(r.u64());
  run.retransmissions = static_cast<std::int64_t>(r.u64());
  run.segments_lost = static_cast<std::int64_t>(r.u64());
  dump.meta.label = r.str(kMaxLabel);
  dump.ranks.resize(rank_count);
  for (std::uint32_t rank = 0; rank < rank_count; ++rank) {
    RankLog& log = dump.ranks[rank];
    log.dropped = r.u64();
    const std::uint32_t count = r.u32();
    AAPC_REQUIRE(count <= dump.meta.ring_capacity,
                 "flight dump: rank " << rank << " claims " << count
                                      << " events in a ring of "
                                      << dump.meta.ring_capacity);
    // 33 bytes per record; checking up front turns an overlength count
    // into one error instead of a partial parse.
    AAPC_REQUIRE(r.remaining() >= static_cast<std::size_t>(count) * 33,
                 "flight dump: rank " << rank << " truncated ("
                                      << r.remaining() << " bytes for "
                                      << count << " events)");
    log.events.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Event& e = log.events[i];
      const std::uint8_t kind = r.u8();
      AAPC_REQUIRE(kind >= 1 && kind <= kEventKindMax,
                   "flight dump: rank " << rank << " event " << i
                                        << " has unknown kind "
                                        << static_cast<int>(kind));
      e.kind = static_cast<EventKind>(kind);
      e.peer = static_cast<std::int32_t>(r.u32());
      e.tag = static_cast<std::int32_t>(r.u32());
      e.bytes = static_cast<std::int64_t>(r.u64());
      e.time = std::bit_cast<double>(r.u64());
      e.aux = std::bit_cast<double>(r.u64());
    }
  }
  r.expect_done("flight dump");
  return dump;
}

void write_dump_file(const FlightDump& dump, const std::string& path) {
  const std::string bytes = encode_dump(dump);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AAPC_REQUIRE(out.good(), "cannot open '" << path << "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    throw Error("write to '" + path + "' failed");
  }
}

FlightDump read_dump_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AAPC_REQUIRE(in.good(), "cannot open '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  AAPC_REQUIRE(!in.bad(), "read from '" << path << "' failed");
  return decode_dump(buffer.str());
}

}  // namespace aapc::flight
