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

ScheduleJsonWriter::ScheduleJsonWriter(const Schedule& schedule,
                                       std::int32_t machine_count,
                                       std::span<const Rank> rank_map)
    : schedule_(&schedule), labels_(rank_map.size()) {
  // Each label is formatted once per document, not once per message.
  for (std::size_t r = 0; r < rank_map.size(); ++r) {
    Label& label = labels_[r];
    label.size = static_cast<std::uint8_t>(
        std::to_chars(label.chars, label.chars + Label::kMaxChars,
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

  // The exact size, and every rank checked against the table. Each
  // message is "[src,dst]" and a comma. Each phase is "[", its messages,
  // a "]" when it has none, and a comma. The last comma of a list
  // becomes its "]", and "}" ends the object.
  const auto n = static_cast<std::int64_t>(labels_.size());
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
    size += labels_[static_cast<std::size_t>(m.src)].size +
            labels_[static_cast<std::size_t>(m.dst)].size;
  }
  size_ = size;

  // The head is the first token.
  AAPC_CHECK(head.size() <= kTokenRoom);
  std::copy(head.begin(), head.end(), at_.token);
  at_.token_size = static_cast<std::uint8_t>(head.size());
}

char* ScheduleJsonWriter::emit(char* cursor, const char* limit) {
  // Writes the tokens in order: each phase's "[" (after a comma from
  // the second phase on) together with its first message, each later
  // message after a comma, the phase's "]" (an empty phase's "[]" is one
  // token), then "]}". A message's labels are copied at their full
  // width, which kTokenRoom leaves room for. The cursor's fields are
  // kept in locals, which the byte stores cannot alias.
  const Schedule& schedule = *schedule_;
  const Message* const messages = schedule.messages.data();
  const std::int64_t* const phase_begin = schedule.phase_begin.data();
  const Label* const labels = labels_.data();
  const std::int32_t phases = schedule.phase_count();
  const char* const last_start = limit - kTokenRoom;
  constexpr std::int64_t kMaxMessage = 4 + 2 * Label::kMaxChars;
  std::int32_t phase = at_.phase;
  std::int64_t message = at_.message;
  const auto put = [labels](char* out, Rank rank) {
    const Label& label = labels[static_cast<std::size_t>(rank)];
    std::memcpy(out, label.chars, Label::kMaxChars);
    return out + label.size;
  };
  const auto put_message = [&put](char* out, const Message& m) {
    *out++ = '[';
    out = put(out, m.src);
    *out++ = ',';
    out = put(out, m.dst);
    *out++ = ']';
    return out;
  };
  while (phase < phases && cursor <= last_start) {
    const std::int64_t first = phase_begin[phase];
    const std::int64_t last = phase_begin[phase + 1];
    if (message == first) {
      if (phase > 0) *cursor++ = ',';
      *cursor++ = '[';
      if (first == last) {
        *cursor++ = ']';
        ++phase;
        continue;
      }
      cursor = put_message(cursor, messages[message++]);
    }
    // A comma and a message advance the cursor by at most kMaxMessage,
    // so this many more start at or before last_start.
    while (message < last && cursor <= last_start) {
      const std::int64_t stop = std::min<std::int64_t>(
          last, message + 1 + (last_start - cursor) / kMaxMessage);
      for (; message < stop; ++message) {
        *cursor++ = ',';
        cursor = put_message(cursor, messages[message]);
      }
    }
    if (message == last && cursor <= last_start) {
      *cursor++ = ']';
      ++phase;
    }
  }
  at_.phase = phase;
  at_.message = message;
  if (phase == phases && !at_.closed && cursor <= last_start) {
    *cursor++ = ']';
    *cursor++ = '}';
    at_.closed = true;
  }
  return cursor;
}

std::size_t ScheduleJsonWriter::write(char* out, std::size_t capacity) {
  char* cursor = out;
  char* const end = out + capacity;
  Position& at = at_;
  while (cursor != end) {
    if (at.token_offset < at.token_size) {
      // The rest of a token that did not fit where the last one ended.
      const std::size_t n =
          std::min(static_cast<std::size_t>(at.token_size - at.token_offset),
                   static_cast<std::size_t>(end - cursor));
      std::memcpy(cursor, at.token + at.token_offset, n);
      cursor += n;
      at.token_offset = static_cast<std::uint8_t>(at.token_offset + n);
    } else if (at.closed) {
      break;
    } else if (static_cast<std::size_t>(end - cursor) >= kTokenRoom) {
      cursor = emit(cursor, end);
    } else {
      // Near the end of the buffer: one token into the Position, from
      // which the branch above copies what fits.
      at.token_size =
          static_cast<std::uint8_t>(emit(at.token, at.token + kTokenRoom) -
                                    at.token);
      at.token_offset = 0;
    }
  }
  const auto n = static_cast<std::size_t>(cursor - out);
  at.written += n;
  return n;
}

void append_schedule_json(std::string& out, const Schedule& schedule,
                          std::int32_t machine_count,
                          std::span<const Rank> rank_map) {
  ScheduleJsonWriter writer(schedule, machine_count, rank_map);
  const std::size_t begin = out.size();
  out.resize(begin + writer.size());
  const std::size_t n = writer.write(out.data() + begin, writer.size());
  AAPC_CHECK(n == writer.size() && writer.done());
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
