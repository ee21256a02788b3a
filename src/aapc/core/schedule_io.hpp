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

#include <span>
#include <string>
#include <string_view>

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

/// The one writer behind both overloads: appends that JSON to `out`, so
/// a caller can write it straight into a buffer that already holds a
/// prefix (netd's response frame). It formats each rank_map entry once,
/// checks every rank and sums the exact size in one pass, grows `out`
/// once, then copies two labels and four punctuation bytes per message.
/// On a throw `out` is unchanged.
void append_schedule_json(std::string& out, const Schedule& schedule,
                          std::int32_t machine_count,
                          std::span<const Rank> rank_map);

/// Parse a schedule from JSON; throws InvalidArgument on malformed
/// input or ranks outside [0, machines), read exactly and never wrapped
/// (common/json.hpp). The embedded machine count must match
/// `expected_machines` when that is >= 0.
Schedule schedule_from_json(std::string_view json,
                            std::int32_t expected_machines = -1);

}  // namespace aapc::core
