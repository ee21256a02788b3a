// Offline root-cause analysis over a flight dump (Megatrace-style).
//
// flight::analyze() reconstructs what the run did from the per-rank
// event rings alone: per-rank CPU post costs (exact multiples of the
// configured overheads, so a straggler's factor is recoverable), per
// data-transfer drain excess versus the calibrated expected duration
// (bytes / effective bandwidth), transfers that never completed, and —
// when the schedule and sync plan are available — the phase dependence
// graph, giving per-message ready times, slack, and the critical path.
//
// The output is a ranked list of typed verdicts:
//   * straggler rank  — post costs well above the fleet median;
//   * degraded link   — every transfer crossing it drains slow (the
//                       minimum excess filters out contention noise:
//                       one fast transfer exonerates the link);
//   * down link       — on the path of every stuck transfer;
//   * lossy transport — link evidence on a packet-backend run that
//                       counted retransmissions; judged by the link's
//                       lower-quartile excess, since stochastic loss
//                       spares the occasional transfer.
// Thresholds are normalized against the healthy population in the same
// dump, so the analyzer needs no absolute calibration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/flight/diagnostics.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::core {
struct Schedule;
}  // namespace aapc::core

namespace aapc::sync {
struct SyncPlan;
}  // namespace aapc::sync

namespace aapc::stp {
struct SpanningTree;
}  // namespace aapc::stp

namespace aapc::flight {

enum class VerdictKind : std::uint8_t {
  kStragglerRank = 1,
  kDegradedLink = 2,
  kDownLink = 3,
  kLossyTransport = 4,
};
const char* verdict_kind_name(VerdictKind kind);

/// One ranked finding. Exactly one of `rank` / `link` is set (>= 0)
/// depending on the kind.
struct Verdict {
  VerdictKind kind = VerdictKind::kStragglerRank;
  std::int32_t rank = -1;
  topology::LinkId link = -1;
  /// The bridge link realizing `link` (SpanningTree::bridge_link_of),
  /// -1 when no spanning tree was supplied or the link is an access
  /// link.
  std::int32_t bridge_link = -1;
  /// Estimated magnitude: slowdown factor (straggler), drain excess
  /// factor (degraded/lossy), stuck-transfer count (down).
  double severity = 0;
  /// Ranking key; higher is more certain/urgent. Down links rank above
  /// everything (the run did not finish because of them).
  double score = 0;
  /// Human-readable evidence, built from the shared diagnostics
  /// formatters.
  std::string detail;
};

/// Per-link aggregate over observed data transfers.
struct LinkUsage {
  topology::LinkId link = -1;
  std::int64_t transfers = 0;
  /// min over transfers of (observed drain / expected drain). A healthy
  /// link's fastest transfer is ~1; a degraded link slows every
  /// transfer, so even the minimum stays high.
  double min_excess = 0;
  double mean_excess = 0;
  std::int64_t stuck = 0;
};

struct AnalysisReport {
  /// Ranked findings, most confident first. Empty = healthy run.
  std::vector<Verdict> verdicts;
  /// Per-rank estimated CPU cost factor (1.0 = nominal), NaN-free;
  /// 0 when a rank produced no post events.
  std::vector<double> rank_post_factor;
  /// Links carrying at least one observed data transfer.
  std::vector<LinkUsage> links;
  /// Data transfers posted but never completed (evidence for down
  /// links), sorted by (src, dst, tag).
  std::vector<StuckTransfer> stuck;
  std::int64_t transfers_observed = 0;
  std::int64_t events_analyzed = 0;
  std::int64_t events_dropped = 0;
  std::int64_t watchdog_retries = 0;

  // ---- dependence-graph reconstruction (schedule + plan supplied) ----
  /// Message ids along the critical path, in completion order.
  std::vector<std::int32_t> critical_path;
  /// Wall-clock span of the critical path (first activation to last
  /// completion).
  double critical_path_span = 0;
  /// Sum over observed messages of activation - ready slack.
  double total_slack = 0;
  /// Per-rank slack summed over messages the rank sent.
  std::vector<double> rank_slack;

  /// One line per verdict ("straggler_rank: rank 3 ...").
  std::string summary() const;
  /// The full report as a JSON object.
  std::string to_json() const;
};

/// Analyzes `dump` against the topology it ran on. `schedule`, `plan`,
/// and `tree` are optional refinements: schedule+plan map each transfer
/// to its scheduled message and enable the dependence-graph/slack
/// reconstruction, `tree` maps culprit links back to bridge links.
AnalysisReport analyze(const FlightDump& dump,
                       const topology::Topology& topo,
                       const core::Schedule* schedule = nullptr,
                       const sync::SyncPlan* plan = nullptr,
                       const stp::SpanningTree* tree = nullptr);

}  // namespace aapc::flight
