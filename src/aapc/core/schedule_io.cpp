#include "aapc/core/schedule_io.hpp"

#include <cctype>
#include <charconv>

#include "aapc/common/error.hpp"

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

namespace {

/// Minimal recursive-descent reader for exactly the schedule grammar
/// (objects with known keys, arrays, integers). Not a general JSON
/// parser by design: unknown keys are rejected so format drift fails
/// loudly.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void expect(char c) {
    skip_space();
    AAPC_REQUIRE(pos_ < text_.size() && text_[pos_] == c,
                 "schedule JSON: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string key() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out.push_back(text_[pos_++]);
    }
    expect('"');
    expect(':');
    return out;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out.push_back(text_[pos_++]);
    }
    expect('"');
    return out;
  }

  std::int64_t integer() {
    skip_space();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    AAPC_REQUIRE(pos_ < text_.size() &&
                     std::isdigit(static_cast<unsigned char>(text_[pos_])),
                 "schedule JSON: expected integer at offset " << pos_);
    std::int64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_++] - '0');
    }
    return negative ? -value : value;
  }

  void finish() {
    skip_space();
    AAPC_REQUIRE(pos_ == text_.size(),
                 "schedule JSON: trailing content at offset " << pos_);
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Schedule schedule_from_json(std::string_view json,
                            std::int32_t expected_machines) {
  Reader reader(json);
  reader.expect('{');
  std::int64_t machines = -1;
  CollectiveKind kind = CollectiveKind::kAlltoall;
  std::vector<std::vector<Message>> phases;
  bool saw_phases = false;
  do {
    const std::string field = reader.key();
    if (field == "machines") {
      machines = reader.integer();
      AAPC_REQUIRE(machines >= 0, "schedule JSON: negative machine count");
    } else if (field == "kind") {
      kind = parse_collective_kind(reader.string_value());
    } else if (field == "phases") {
      saw_phases = true;
      reader.expect('[');
      if (!reader.consume(']')) {
        do {
          reader.expect('[');
          std::vector<Message> phase;
          if (!reader.consume(']')) {
            do {
              reader.expect('[');
              const std::int64_t src = reader.integer();
              reader.expect(',');
              const std::int64_t dst = reader.integer();
              reader.expect(']');
              phase.push_back(Message{static_cast<Rank>(src),
                                      static_cast<Rank>(dst)});
            } while (reader.consume(','));
            reader.expect(']');
          }
          phases.push_back(std::move(phase));
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
  AAPC_REQUIRE(saw_phases, "schedule JSON: missing 'phases'");
  AAPC_REQUIRE(expected_machines < 0 || machines == expected_machines,
               "schedule JSON: machine count " << machines << " != expected "
                                               << expected_machines);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Message& m : phases[p]) {
      AAPC_REQUIRE(m.src >= 0 && m.src < machines && m.dst >= 0 &&
                       m.dst < machines,
                   "schedule JSON: rank out of range in phase " << p);
    }
  }
  Schedule schedule = Schedule::from_phase_lists(phases);
  schedule.kind = kind;
  return schedule;
}

}  // namespace aapc::core
