// Trace rendering: turns the executor's per-message timeline into
// human- and tool-consumable artifacts.
//
//  * CSV           one row per transfer (spreadsheet analysis)
//  * Chrome JSON   the trace-event format understood by
//                  chrome://tracing and https://ui.perfetto.dev —
//                  one track per rank, data transfers as duration
//                  events, sync tokens as instant markers
//  * ASCII Gantt   a terminal chart, one row per rank
//  * link report   per-directed-edge bytes and utilization over the run
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/mpisim/executor.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::trace {

/// One transfer per CSV row: src,dst,bytes,tag,kind,start,end,delivered.
std::string to_csv(const std::vector<mpisim::MessageTrace>& trace);

/// Chrome trace-event JSON ("traceEvents" array; timestamps in
/// microseconds; pid 0, tid = sender rank). Transfers the watchdog
/// reposted carry a "retries" arg.
std::string to_chrome_json(const std::vector<mpisim::MessageTrace>& trace);

/// The narrowest chart ascii_gantt draws.
inline constexpr std::int32_t kMinGanttWidth = 10;

/// Terminal Gantt chart `width` characters wide (at least
/// kMinGanttWidth): one row per sending rank; '#' spans a data
/// transfer, '.' idle. Overlapping transfers on one rank render '2'...
/// Synchronization tokens are skipped (usually too small to see).
std::string ascii_gantt(const std::vector<mpisim::MessageTrace>& trace,
                        std::int32_t rank_count, std::int32_t width = 100);

/// Per-directed-edge traffic and utilization relative to the effective
/// bandwidth over [0, completion].
std::string link_utilization_report(const topology::Topology& topo,
                                    const simnet::NetworkStats& stats,
                                    double effective_bandwidth_bytes_per_sec,
                                    SimTime completion);

/// Maximum number of data transfers simultaneously in flight whose
/// tree paths share a directed edge — 1 for a correctly serialized
/// contention-free execution (used by tests to validate the §5
/// synchronization end to end).
std::int32_t max_overlapping_contending_transfers(
    const topology::Topology& topo,
    const std::vector<mpisim::MessageTrace>& trace);

}  // namespace aapc::trace
