// Churn experiment: quantifies the serving path's two answers to a
// live link-rate change, in the order a client sees them.
//
// When a fabric link degrades mid-load, a cached schedule goes through
// two states (service/epochs.hpp, docs/SERVICE.md §churn):
//   stale       — the pre-churn paper-optimal schedule, which the
//                 service keeps serving with stale=true while it
//                 revalidates (a rate-only event leaves the tree, and
//                 so the schedule's contention-freedom, unchanged);
//   revalidated — the background weighted recompilation
//                 (core::build_aapc_schedule_weighted at the degraded
//                 rates) that replaces it once it lands.
// run_churn() executes both on the degraded network, plus the healthy
// baseline, and reports completion times, throughputs, and the
// weighted-model costs (core/weighted.hpp) next to the weighted
// bottleneck-load lower bound — so "revalidation never serves worse
// than the stale schedule" is a measurable, gateable claim
// (bench_churn.cpp).
//
// The experiment deliberately keeps the elected tree fixed: plans here
// are degrade/restore only (a down link is repair territory,
// harness/resilience.hpp). Every leg runs the full AAPC at the
// capacities in force after the last scripted event.
#pragma once

#include <string>

#include "aapc/common/units.hpp"
#include "aapc/core/weighted.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/stp/stp.hpp"

namespace aapc::harness {

struct ChurnScenario {
  std::string title = "churn";
  Bytes msize = 64_KiB;
  /// Degrade/restore timeline in BRIDGE-LINK indices of the network the
  /// scenario runs on. Link-down events are rejected (no re-election in
  /// this experiment; see file comment).
  faults::FaultPlan plan;
  /// Time at which the post-churn link state is sampled; -1 = just
  /// after the last scripted event (the steady degraded state).
  SimTime observe_at = -1;
  lowering::LoweringOptions lowering;
  simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
};

struct ChurnReport {
  std::string title;
  Bytes msize = 0;
  std::int32_t machines = 0;

  // -- completion times (simulated seconds) --
  SimTime healthy_completion = 0;      // paper schedule, nominal links
  SimTime stale_completion = 0;        // paper schedule, degraded links
  SimTime revalidated_completion = 0;  // weighted schedule, degraded

  // -- achieved throughput (payload Mbps) --
  double healthy_mbps = 0;
  double stale_mbps = 0;
  double revalidated_mbps = 0;

  // -- schedule shape --
  std::int32_t healthy_phases = 0;
  std::int32_t revalidated_phases = 0;
  /// build_aapc_schedule_weighted picked its weighted greedy over the
  /// rate-blind optimal (false = the optimal already matched the bound).
  bool weighted_schedule_won = false;

  // -- weighted cost model (core/weighted.hpp), at the degraded rates --
  double weighted_load = 0;  // lower bound on any schedule's cost
  double stale_cost = 0;
  double revalidated_cost = 0;

  // -- capacity bounds (payload Mbps, faults::aapc_peak_throughput) --
  double healthy_peak_mbps = 0;
  double degraded_peak_mbps = 0;

  /// The acceptance ratio: >= 1 means the background revalidation
  /// serves no less throughput than the stale schedule it replaces.
  double revalidated_over_stale() const {
    return stale_mbps > 0 ? revalidated_mbps / stale_mbps : 0;
  }
  /// Throughput kept by the revalidated schedule vs the degraded peak.
  double revalidated_peak_ratio() const {
    return degraded_peak_mbps > 0 ? revalidated_mbps / degraded_peak_mbps : 0;
  }

  std::string to_string() const;
};

/// Runs the three legs on `network`. Throws InvalidArgument on plans
/// with non-link or link-down events.
ChurnReport run_churn(const stp::BridgeNetwork& network,
                      const ChurnScenario& scenario);

}  // namespace aapc::harness
