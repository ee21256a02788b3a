// Schedule serialization: a small JSON representation so generated
// schedules can be inspected, stored, diffed, or consumed by external
// tooling (and so the routine generator can be split into offline
// schedule generation + online execution).
//
// Format:
//   {
//     "machines": 6,
//     "phases": [
//       [[0,4],[3,5],[1,0]],      // phase 0: messages [src,dst]
//       ...
//     ]
//   }
//
// Loading rebuilds the phase-major arena and its offsets; a message's
// phase is its position (verification and lowering derive everything
// else from the topology).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/core/schedule.hpp"

namespace aapc::core {

/// Serialize to the JSON format above (stable field order, no
/// whitespace dependence for parsing). Throws InvalidArgument for a rank
/// outside [0, machine_count), which the reader would reject too.
std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count);

/// Same, writing rank r as rank_map[r]: the JSON of
/// relabel_schedule(schedule, rank_map) without building that schedule.
/// Throws InvalidArgument for a rank outside [0, rank_map.size()).
std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count,
                             std::span<const Rank> rank_map);

/// Appends that JSON to `out`, so a caller can write it behind a prefix
/// it already holds. Runs ScheduleJsonWriter below over one resize of
/// `out`. On a throw `out` is unchanged.
void append_schedule_json(std::string& out, const Schedule& schedule,
                          std::int32_t machine_count,
                          std::span<const Rank> rank_map);

/// The one schedule JSON writer, resumable. The constructor formats
/// each rank_map entry once into a label table, checks every rank
/// against it and sums the document's exact size. Each write() then
/// fills the buffer it is given and stops where it ran out, so the
/// document can go out in chunks through one reused buffer (netd's
/// answers). Between calls the writer holds the label table (12 bytes
/// a rank), a Position and a pointer to `schedule`, which must outlive
/// it.
class ScheduleJsonWriter {
 public:
  /// Room write() needs to put a token straight into its buffer: the
  /// longest token (the head, at most 59 bytes) and the slack of a
  /// label's full-width copy. A shorter tail goes through the Position.
  static constexpr std::size_t kTokenRoom = 64;

  /// Where the writer stands: the phase, the next message and the
  /// unwritten rest of one token (the head, a phase's bracket, a
  /// message, or the closing "]}").
  struct Position {
    std::int32_t phase = 0;
    std::int64_t message = 0;
    bool closed = false;  // "]}" is in `token` or written
    std::uint8_t token_size = 0;
    std::uint8_t token_offset = 0;
    char token[kTokenRoom] = {};
    std::size_t written = 0;
  };

  /// Throws InvalidArgument for a rank outside [0, rank_map.size()).
  ScheduleJsonWriter(const Schedule& schedule, std::int32_t machine_count,
                     std::span<const Rank> rank_map);

  /// The whole document's size in bytes.
  std::size_t size() const { return size_; }
  bool done() const { return at_.written == size_; }

  /// Writes the next min(capacity, unwritten) bytes to `out` and returns
  /// how many it wrote.
  std::size_t write(char* out, std::size_t capacity);

  /// A saved position, and a return to it: write() from there writes the
  /// same bytes again.
  const Position& position() const { return at_; }
  void seek(const Position& position) { at_ = position; }

 private:
  /// A rank's decimal text. Each entry is copied at its full width and
  /// the cursor advances by `size`.
  struct Label {
    static constexpr std::size_t kMaxChars = 11;  // "-2147483648"
    char chars[kMaxChars] = {};
    std::uint8_t size = 0;
  };

  /// Writes whole tokens while `limit - cursor >= kTokenRoom`.
  char* emit(char* cursor, const char* limit);

  const Schedule* schedule_;
  std::vector<Label> labels_;
  std::size_t size_ = 0;
  Position at_;
};

/// Parse a schedule from JSON; throws InvalidArgument on malformed
/// input or ranks outside [0, machines), read exactly and never wrapped
/// (common/json.hpp). The embedded machine count must match
/// `expected_machines` when that is >= 0.
Schedule schedule_from_json(std::string_view json,
                            std::int32_t expected_machines = -1);

}  // namespace aapc::core
