#include "aapc/core/schedule_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"

namespace aapc::core {

namespace {

/// A rank's decimal text. Each entry is copied at its full width and the
/// cursor advances by `size`, so the writer keeps kMaxChars bytes of
/// slack past the end until it is done.
struct LabelText {
  static constexpr std::size_t kMaxChars = 11;  // "-2147483648"
  char chars[kMaxChars] = {};
  std::uint8_t size = 0;
};

}  // namespace

void append_schedule_json(std::string& out, const Schedule& schedule,
                          std::int32_t machine_count,
                          std::span<const Rank> rank_map) {
  // Each label is formatted once per answer, not once per message.
  std::vector<LabelText> labels(rank_map.size());
  for (std::size_t r = 0; r < rank_map.size(); ++r) {
    LabelText& label = labels[r];
    label.size = static_cast<std::uint8_t>(
        std::to_chars(label.chars, label.chars + LabelText::kMaxChars,
                      rank_map[r])
            .ptr -
        label.chars);
  }
  std::string head = "{\"machines\":" + std::to_string(machine_count);
  // Alltoall is implicit so pre-kind schedule JSON stays byte-identical
  // (determinism goldens, netd loadgen byte-compare).
  if (schedule.kind != CollectiveKind::kAlltoall) {
    head += ",\"kind\":\"";
    head += collective_kind_name(schedule.kind);
    head += '"';
  }
  head += ",\"phases\":[";

  // The exact size, and every rank checked against the table, before
  // `out` changes. Each message is "[src,dst]" and a comma. Each phase is
  // "[", its messages, a "]" when it has none, and a comma. The last
  // comma of a list becomes its "]", and "}" ends the object.
  const auto n = static_cast<std::int64_t>(labels.size());
  const std::int32_t phases = schedule.phase_count();
  std::size_t size = head.size() + 1 + 4 * schedule.messages.size();
  for (std::int32_t p = 0; p < phases; ++p) {
    size += schedule.phase_size(p) == 0 ? 3 : 2;
  }
  if (phases == 0) size += 1;  // no comma to become the "]"
  for (const Message& m : schedule.messages) {
    for (const Rank r : {m.src, m.dst}) {
      AAPC_REQUIRE(r >= 0 && r < n,
                   "schedule rank " << r << " outside [0, " << n << ")");
    }
    size += labels[static_cast<std::size_t>(m.src)].size +
            labels[static_cast<std::size_t>(m.dst)].size;
  }

  const std::size_t begin = out.size();
  out.resize(begin + size + LabelText::kMaxChars);
  char* cursor = std::copy(head.begin(), head.end(), out.data() + begin);
  const auto put = [&cursor](const LabelText& label) {
    std::memcpy(cursor, label.chars, LabelText::kMaxChars);
    cursor += label.size;
  };
  for (std::int32_t p = 0; p < phases; ++p) {
    *cursor++ = '[';
    const PhaseSpan phase = schedule.phase(p);
    for (const Message& m : phase) {
      *cursor++ = '[';
      put(labels[static_cast<std::size_t>(m.src)]);
      *cursor++ = ',';
      put(labels[static_cast<std::size_t>(m.dst)]);
      *cursor++ = ']';
      *cursor++ = ',';
    }
    if (!phase.empty()) --cursor;  // the last comma becomes the ']'
    *cursor++ = ']';
    *cursor++ = ',';
  }
  if (phases > 0) --cursor;
  *cursor++ = ']';
  *cursor++ = '}';
  AAPC_CHECK(cursor == out.data() + begin + size);
  out.resize(begin + size);
}

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count) {
  AAPC_REQUIRE(machine_count >= 0,
               "machine count " << machine_count << " is negative");
  std::vector<Rank> identity(static_cast<std::size_t>(machine_count));
  std::iota(identity.begin(), identity.end(), Rank{0});
  return schedule_to_json(schedule, machine_count, identity);
}

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count,
                             std::span<const Rank> rank_map) {
  std::string out;
  append_schedule_json(out, schedule, machine_count, rank_map);
  return out;
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
