// Resilience experiment: quantifies what a scripted fault timeline
// costs an AAPC run and what schedule repair wins back.
//
// Four legs, all on the same bridged LAN:
//   healthy   — the paper's schedule on the fault-free tree (baseline);
//   stale     — same programs with the fault plan injected: the
//               schedule built for the healthy tree keeps routing over
//               the degraded links (or stalls/aborts on a down link);
//   prefix    — phases [0, splice) on the healthy tree: the work done
//               before the fault bites;
//   remainder — phases [splice, end) rescheduled by repair_schedule on
//               the residual tree, run at the residual capacities.
// The repaired completion is
//   prefix + kDetectionLatency + kRepairOverhead + remainder,
// i.e. a fail-over at a phase boundary with an explicit detection /
// reconvergence budget. Every leg runs on the default network model
// and lowering; the splice is the first phase boundary after the
// fault-onset fraction of the healthy run.
#pragma once

#include <cstdint>
#include <string>

#include "aapc/common/units.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/stp/stp.hpp"

namespace aapc::harness {

/// Simulated time between fault onset and the repair decision (failure
/// detection — STP hello timeouts, transfer watchdogs).
inline constexpr SimTime kDetectionLatency = milliseconds(2.0);
/// Simulated reconvergence budget charged to the repaired timeline on
/// top of detection (e.g. RSTP proposal/agreement).
inline constexpr SimTime kRepairOverhead = milliseconds(1.0);

struct ResilienceScenario {
  std::string title = "resilience";
  Bytes msize = 64_KiB;
  /// Fault timeline scripted in BRIDGE-LINK indices of the network the
  /// scenario runs on (translated onto each elected tree via
  /// SpanningTree::link_of_bridge_link).
  faults::FaultPlan plan;
  mpisim::ExecutorParams exec;
};

struct ResilienceReport {
  std::string title;
  Bytes msize = 0;
  // -- completion times (simulated seconds) --
  SimTime healthy_completion = 0;
  /// Stale schedule under the fault plan. Meaningful only when
  /// stale_completed; a down link without a watchdog stalls instead.
  SimTime stale_completion = 0;
  bool stale_completed = false;
  /// ExecutionStalled / TransferAborted message when !stale_completed.
  std::string stale_failure;
  SimTime prefix_completion = 0;
  SimTime remainder_completion = 0;
  /// prefix + kDetectionLatency + kRepairOverhead + remainder.
  SimTime repaired_completion = 0;
  // -- phases --
  std::int32_t splice_phase = 0;
  std::int32_t healthy_phases = 0;
  std::int32_t remainder_phases = 0;
  // -- capacity bounds (payload Mbps, faults::aapc_peak_throughput) --
  double healthy_peak_mbps = 0;
  /// Peak of the ORIGINAL tree at post-fault capacities: what the stale
  /// schedule can at best sustain.
  double degraded_peak_mbps = 0;
  /// Peak of the residual (re-elected) tree at post-fault capacities:
  /// what repair can at best sustain.
  double residual_peak_mbps = 0;
  // -- achieved throughput (payload Mbps) --
  double healthy_mbps = 0;
  double stale_mbps = 0;
  double repaired_mbps = 0;

  /// Ratio helpers for the acceptance check: throughput kept by the
  /// repaired run vs the best the degraded original tree allows.
  double recovered_ratio() const {
    return healthy_mbps > 0 ? repaired_mbps / healthy_mbps : 0;
  }
  double degraded_peak_ratio() const {
    return healthy_peak_mbps > 0 ? degraded_peak_mbps / healthy_peak_mbps : 0;
  }

  std::string to_string() const;
};

/// Runs the four legs on `network` (election, schedule, lowering, and
/// execution all derive from it). Throws InvalidArgument when the plan
/// leaves the bridge graph disconnected at repair time.
ResilienceReport run_resilience(const stp::BridgeNetwork& network,
                                const ResilienceScenario& scenario);

}  // namespace aapc::harness
