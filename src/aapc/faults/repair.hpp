// Schedule repair on the residual topology.
//
// When a link degrades or fails, the paper's contention-free schedule
// keeps routing every message over the tree it was built for — the
// bottleneck link's loss is the whole operation's loss. Bridged
// Ethernet LANs, however, usually carry *redundant* links that STP
// blocks in normal operation (§3: "the physical topology is always a
// tree" — of the healthy network). Repair re-runs the 802.1D election
// with fault-aware link costs, producing the residual tree the real
// protocol would converge to, and reschedules the not-yet-sent phases
// of the AAPC on it (greedy first-fit: the schedule remainder is an
// arbitrary pattern, not the complete AAPC the optimal scheduler
// requires).
#pragma once

#include <cstdint>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::faults {

/// Re-runs the STP election on the residual bridge graph at time `t`:
/// bridge links down at `t` are removed; degraded links stay eligible
/// but their path cost is divided by the remaining capacity fraction
/// (a half-speed link costs twice as much — the 802.1D cost-inverse-
/// to-bandwidth convention), so a healthy redundant link that STP
/// normally blocks wins the port election once the primary degrades.
/// The returned forwarding / link_of_bridge_link vectors use the
/// ORIGINAL bridge-link indexing (removed links: blocked / -1).
/// Throws InvalidArgument if the residual graph is disconnected.
stp::SpanningTree elect_residual(const stp::BridgeNetwork& network,
                                 const FaultPlan& plan, SimTime t);

/// Theoretical peak aggregate AAPC throughput (payload bytes/sec) of a
/// tree whose physical links run at `link_capacity` (raw bytes/sec):
///   min over links l of  P * capacity(l) * protocol_eff / n_l
/// where P = |M|(|M|-1) ordered pairs and n_l = pairs whose path
/// crosses l in one direction (Topology::aapc_link_load, equal in both
/// directions). This is the link-capacity bound the harness plots as
/// "Peak" generalized to heterogeneous (degraded) links; duplex and
/// fabric caps are deliberately excluded (same convention as the
/// paper's §3 peak formula). Returns 0 if any loaded link is down.
double aapc_peak_throughput(const topology::Topology& topo,
                            const simnet::NetworkParams& params,
                            const std::vector<double>& link_capacity);

/// Per-link raw capacities of `tree` under `plan` at time `t`:
/// nominal capacities from `params`, scaled by the plan's bridge-link
/// factors translated through tree.link_of_bridge_link. Machine access
/// links keep their nominal rate (plans script bridge links).
std::vector<double> residual_link_capacities(
    const stp::SpanningTree& tree, const simnet::NetworkParams& params,
    const FaultPlan& plan, SimTime t);

/// The repaired program for the un-executed tail of a schedule.
struct RepairResult {
  /// Election on the residual bridge graph (original link indexing).
  stp::SpanningTree residual;
  /// Messages of phases >= splice_phase, rescheduled on the residual
  /// tree by greedy first-fit (contention-free, phase count >= load).
  core::Schedule remainder;
};

/// Repairs `schedule` at a phase boundary: re-elects the residual tree
/// at time `t` and reschedules every message of phases >=
/// `splice_phase`. The schedule must have been built for a tree elected
/// from this same `network` (ranks correspond by machine order).
RepairResult repair_schedule(const stp::BridgeNetwork& network,
                             const core::Schedule& schedule,
                             std::int32_t splice_phase,
                             const FaultPlan& plan, SimTime t);

}  // namespace aapc::faults
