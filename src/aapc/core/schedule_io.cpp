#include "aapc/core/schedule_io.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"

namespace aapc::core {

namespace {

/// The one writer: `label(r)` is the rank written for schedule rank r.
template <class Label>
std::string write_json(const Schedule& schedule, std::int32_t machine_count,
                       const Label& label) {
  char machines[16];
  const std::size_t width = static_cast<std::size_t>(
      std::to_chars(machines, machines + sizeof machines, machine_count).ptr -
      machines);
  // Served ranks lie in [0, machine_count) (the reader enforces it), so
  // none is wider than machine_count and a message takes at most
  // ",[src,dst]". 64 covers the header, the kind and the closing "]}".
  // A schedule breaking that range still serializes, with a regrowth.
  std::string out;
  out.reserve(64 + 3 * static_cast<std::size_t>(schedule.phase_count()) +
              (2 * width + 4) * schedule.messages.size());
  out.append("{\"machines\":");
  out.append(machines, width);
  // Alltoall is implicit so pre-kind schedule JSON stays byte-identical
  // (determinism goldens, netd loadgen byte-compare).
  if (schedule.kind != CollectiveKind::kAlltoall) {
    out.append(",\"kind\":\"");
    out.append(collective_kind_name(schedule.kind));
    out.push_back('"');
  }
  out.append(",\"phases\":[");
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    if (p > 0) out.push_back(',');
    out.push_back('[');
    const PhaseSpan phase = schedule.phase(p);
    for (std::size_t i = 0; i < phase.size(); ++i) {
      constexpr std::ptrdiff_t kRankChars = 11;  // "-2147483648"
      char text[2 * kRankChars + 4];
      char* end = text;
      if (i > 0) *end++ = ',';
      *end++ = '[';
      end = std::to_chars(end, end + kRankChars, label(phase[i].src)).ptr;
      *end++ = ',';
      end = std::to_chars(end, end + kRankChars, label(phase[i].dst)).ptr;
      *end++ = ']';
      out.append(text, static_cast<std::size_t>(end - text));
    }
    out.push_back(']');
  }
  out.append("]}");
  return out;
}

}  // namespace

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count) {
  return write_json(schedule, machine_count, [](Rank r) { return r; });
}

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count,
                             std::span<const Rank> rank_map) {
  const auto n = static_cast<Rank>(rank_map.size());
  return write_json(schedule, machine_count, [&](Rank r) {
    AAPC_REQUIRE(r >= 0 && r < n, "schedule rank " << r
                                      << " not covered by the rank map (size "
                                      << n << ")");
    return rank_map[static_cast<std::size_t>(r)];
  });
}

Schedule schedule_from_json(std::string_view json,
                            std::int32_t expected_machines) {
  constexpr std::int64_t kMaxMachines = std::numeric_limits<Rank>::max();
  json::Reader reader(json, "schedule JSON");
  Schedule schedule;
  std::int64_t machines = -1;
  // Ranks lie in [0, machines). The writer puts "machines" first, so the
  // bound is known as ranks are read; `top` covers a file that gives it
  // later.
  std::int64_t top = -1;
  reader.expect('{');
  do {
    const std::string field = reader.key();
    if (field == "machines") {
      machines = reader.integer(0, kMaxMachines);
    } else if (field == "kind") {
      schedule.kind = parse_collective_kind(reader.string());
    } else if (field == "phases") {
      if (schedule.phase_begin.empty()) schedule.phase_begin.push_back(0);
      const std::int64_t rank_end = machines >= 0 ? machines : kMaxMachines;
      reader.expect('[');
      if (!reader.consume(']')) {
        do {
          reader.expect('[');
          if (!reader.consume(']')) {
            do {
              reader.expect('[');
              const std::int64_t src = reader.integer(0, rank_end - 1);
              reader.expect(',');
              const std::int64_t dst = reader.integer(0, rank_end - 1);
              reader.expect(']');
              top = std::max({top, src, dst});
              schedule.messages.push_back(
                  Message{static_cast<Rank>(src), static_cast<Rank>(dst)});
            } while (reader.consume(','));
            reader.expect(']');
          }
          schedule.phase_begin.push_back(schedule.message_count());
        } while (reader.consume(','));
        reader.expect(']');
      }
    } else {
      throw InvalidArgument("schedule JSON: unknown field '" + field + "'");
    }
  } while (reader.consume(','));
  reader.expect('}');
  reader.finish();

  AAPC_REQUIRE(machines >= 0, "schedule JSON: missing 'machines'");
  AAPC_REQUIRE(!schedule.phase_begin.empty(),
               "schedule JSON: missing 'phases'");
  AAPC_REQUIRE(expected_machines < 0 || machines == expected_machines,
               "schedule JSON: machine count " << machines << " != expected "
                                               << expected_machines);
  AAPC_REQUIRE(top < machines, "schedule JSON: rank " << top
                                   << " out of range for " << machines
                                   << " machines");
  return schedule;
}

}  // namespace aapc::core
