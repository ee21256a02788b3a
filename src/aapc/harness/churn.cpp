#include "aapc/harness/churn.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/greedy.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/repair.hpp"
#include "aapc/harness/experiment.hpp"

namespace aapc::harness {

std::string ChurnReport::to_string() const {
  std::ostringstream os;
  os << title << " (" << machines << " machines, msize "
     << format_size(msize) << "B)\n";
  os << "  completion ms: healthy "
     << format_double(to_milliseconds(healthy_completion), 2) << " | stale "
     << format_double(to_milliseconds(stale_completion), 2)
     << " | revalidated "
     << format_double(to_milliseconds(revalidated_completion), 2) << "\n";
  os << "  achieved Mbps: healthy " << format_double(healthy_mbps, 1)
     << " | stale " << format_double(stale_mbps, 1) << " | revalidated "
     << format_double(revalidated_mbps, 1) << "\n";
  os << "  phases: healthy " << healthy_phases << " | revalidated "
     << revalidated_phases
     << (weighted_schedule_won ? " (weighted greedy won)"
                               : " (rate-blind optimal kept)")
     << "\n";
  os << "  weighted cost: stale " << format_double(stale_cost, 2)
     << " | revalidated " << format_double(revalidated_cost, 2)
     << " | load bound " << format_double(weighted_load, 2) << "\n";
  os << "  peak Mbps: healthy " << format_double(healthy_peak_mbps, 1)
     << " | degraded " << format_double(degraded_peak_mbps, 1)
     << "; revalidated/stale " << format_double(revalidated_over_stale(), 3)
     << ", revalidated/degraded-peak "
     << format_double(revalidated_peak_ratio(), 3) << "\n";
  return os.str();
}

ChurnReport run_churn(const stp::BridgeNetwork& network,
                      const ChurnScenario& scenario) {
  scenario.plan.validate();
  for (const faults::FaultEvent& event : scenario.plan.events) {
    AAPC_REQUIRE(event.kind == faults::FaultKind::kLinkDegrade ||
                     event.kind == faults::FaultKind::kLinkUp,
                 "churn experiments take degrade/restore timelines only "
                 "(link-down re-election is harness/resilience.hpp)");
    AAPC_REQUIRE(event.link >= 0 && event.link < network.bridge_link_count(),
                 "plan names bridge link " << event.link << " but the "
                     "network has " << network.bridge_link_count());
  }

  const stp::SpanningTree tree = stp::compute_spanning_tree(network);
  const topology::Topology& topo = tree.topology;
  const core::Schedule healthy = core::build_aapc_schedule(topo);

  ChurnReport report;
  report.title = scenario.title;
  report.msize = scenario.msize;
  report.machines = topo.machine_count();
  report.healthy_phases = healthy.phase_count();
  const auto mbps = [&](SimTime completion) {
    return aapc_mbps(topo.machine_count(), scenario.msize, completion);
  };

  // The degraded steady state: bridge-link factors at observe time,
  // translated onto the elected tree. Rates feed the weighted
  // scheduler; capacities feed the executor — same numbers, two units.
  SimTime observe = scenario.observe_at;
  if (observe < 0) {
    observe = 0;
    for (const faults::FaultEvent& event : scenario.plan.events) {
      observe = std::max(observe, event.when);
    }
  }
  const std::vector<double> factors = faults::link_factors_at(
      scenario.plan, observe, network.bridge_link_count());
  core::LinkRates rates(static_cast<std::size_t>(topo.link_count()), 1.0);
  for (std::size_t b = 0; b < factors.size(); ++b) {
    const topology::LinkId link =
        tree.link_of_bridge_link[static_cast<std::ptrdiff_t>(b)];
    if (link >= 0) rates[static_cast<std::size_t>(link)] = factors[b];
  }
  const std::vector<double> degraded_caps = faults::residual_link_capacities(
      tree, scenario.net, scenario.plan, observe);
  const simnet::NetworkParams degraded_net =
      with_link_capacities(scenario.net, degraded_caps);

  // Leg 1: healthy baseline at nominal capacities.
  const mpisim::ProgramSet healthy_programs = lowering::lower_schedule(
      topo, healthy, scenario.msize, scenario.lowering);
  report.healthy_completion =
      run_programs(topo, scenario.net, scenario.exec, healthy_programs)
          .completion_time;
  report.healthy_mbps = mbps(report.healthy_completion);

  // Leg 2: the same pre-churn schedule on the degraded links.
  report.stale_completion =
      run_programs(topo, degraded_net, scenario.exec, healthy_programs)
          .completion_time;
  report.stale_mbps = mbps(report.stale_completion);

  // Leg 3: the background revalidation — weighted scheduling at the
  // degraded rates.
  const core::Schedule revalidated =
      core::build_aapc_schedule_weighted(topo, rates);
  report.revalidated_phases = revalidated.phase_count();
  report.revalidated_completion =
      run_programs(topo, degraded_net, scenario.exec,
                   lowering::lower_schedule(topo, revalidated, scenario.msize,
                                            scenario.lowering))
          .completion_time;
  report.revalidated_mbps = mbps(report.revalidated_completion);

  // Weighted cost model.
  report.weighted_load =
      core::weighted_pattern_load(topo, core::aapc_pattern(topo), rates);
  report.stale_cost = core::weighted_schedule_cost(topo, healthy, rates);
  report.revalidated_cost =
      core::weighted_schedule_cost(topo, revalidated, rates);
  report.weighted_schedule_won =
      report.revalidated_cost < report.stale_cost;

  // Capacity bounds.
  report.healthy_peak_mbps = bytes_per_sec_to_mbps(
      faults::aapc_peak_throughput(
          topo, scenario.net,
          scenario.net.link_capacities(topo.link_count())));
  report.degraded_peak_mbps = bytes_per_sec_to_mbps(
      faults::aapc_peak_throughput(topo, scenario.net, degraded_caps));
  return report;
}

}  // namespace aapc::harness
