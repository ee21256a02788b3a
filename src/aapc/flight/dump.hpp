// Versioned binary dump of a flight recorder's rings plus the run
// context the analyzer needs (docs/FORMATS.md §5). A dump is taken with
// snapshot() at run end or after TransferAborted / ExecutionStalled —
// the rings are valid either way, which is the point of a flight
// recorder: the evidence survives the crash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/flight/recorder.hpp"

namespace aapc::flight {

inline constexpr std::uint64_t kDumpMagic = 0x31544C4643504141ull;  // "AAPCFLT1"
inline constexpr std::uint16_t kDumpVersion = 2;

/// Dump header: the recorder's geometry, the run context the executor
/// stamped into it, and a label. snapshot() fills all of it.
struct DumpMeta {
  std::int32_t rank_count = 0;
  std::uint32_t ring_capacity = 0;
  /// Tags >= this are sync tokens (lowering convention, 2^20).
  std::int32_t sync_tag_base = 1 << 20;
  RunContext run;
  /// Free-form run label ("netprobe --flight", ...).
  std::string label;
};

/// One rank's retained events (oldest first) and its overwrite count.
struct RankLog {
  std::uint64_t dropped = 0;
  std::vector<Event> events;
};

struct FlightDump {
  DumpMeta meta;
  std::vector<RankLog> ranks;
};

/// Coherently snapshots every ring of `recorder`, with its geometry and
/// run context (Recorder::run), into a dump labelled `label`.
FlightDump snapshot(const Recorder& recorder, std::string label);

/// Binary encoding (little-endian, docs/FORMATS.md §5).
std::string encode_dump(const FlightDump& dump);

/// Decodes and validates a dump; throws InvalidArgument on bad magic,
/// unknown version, truncation, trailing bytes, or out-of-range record
/// counts / event kinds.
FlightDump decode_dump(std::string_view bytes);

/// File round-trip (throws Error on IO failure).
void write_dump_file(const FlightDump& dump, const std::string& path);
FlightDump read_dump_file(const std::string& path);

}  // namespace aapc::flight
