#include "aapc/faults/repair.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "aapc/common/error.hpp"
#include "aapc/core/greedy.hpp"

namespace aapc::faults {

stp::SpanningTree elect_residual(const stp::BridgeNetwork& network,
                                 const FaultPlan& plan, SimTime t) {
  const std::vector<double> factors =
      link_factors_at(plan, t, network.bridge_link_count());
  // Rebuild the bridge graph with fault-aware costs; down links are
  // removed entirely (an 802.1D bridge stops seeing hellos on a dead
  // port). Keep a residual-index -> original-index map so the election
  // results can be reported in the caller's link numbering.
  stp::BridgeNetwork residual;
  for (stp::BridgeId b = 0; b < network.bridge_count(); ++b) {
    residual.add_bridge(network.bridge_name(b), network.bridge_identifier(b));
  }
  std::vector<std::int32_t> original_of_residual;
  for (std::size_t l = 0; l < network.links().size(); ++l) {
    const double factor = factors[l];
    if (factor <= 0) continue;  // down
    const auto& link = network.links()[l];
    const auto cost = static_cast<std::int32_t>(
        std::ceil(static_cast<double>(link.cost) / factor));
    residual.add_bridge_link(link.a, link.b, cost);
    original_of_residual.push_back(static_cast<std::int32_t>(l));
  }
  for (const auto& machine : network.machines()) {
    residual.add_machine(machine.name, machine.bridge);
  }

  stp::SpanningTree elected = stp::compute_spanning_tree(residual);

  // Re-index the per-link vectors to the original link numbering.
  std::vector<bool> forwarding(network.links().size(), false);
  std::vector<topology::LinkId> link_of(network.links().size(), -1);
  for (std::size_t r = 0; r < original_of_residual.size(); ++r) {
    const auto original =
        static_cast<std::size_t>(original_of_residual[r]);
    forwarding[original] = elected.forwarding[r];
    link_of[original] = elected.link_of_bridge_link[r];
  }
  elected.forwarding = std::move(forwarding);
  elected.link_of_bridge_link = std::move(link_of);
  return elected;
}

double aapc_peak_throughput(const topology::Topology& topo,
                            const simnet::NetworkParams& params,
                            const std::vector<double>& link_capacity) {
  AAPC_REQUIRE(link_capacity.size() ==
                   static_cast<std::size_t>(topo.link_count()),
               "capacity vector size " << link_capacity.size()
                                       << " != " << topo.link_count()
                                       << " links");
  const std::int32_t machines = topo.machine_count();
  AAPC_REQUIRE(machines >= 2, "peak needs at least two machines");
  // Per-directed-edge count of AAPC pairs crossing it.
  std::vector<std::int64_t> crossing(
      static_cast<std::size_t>(topo.directed_edge_count()), 0);
  for (topology::Rank src = 0; src < machines; ++src) {
    for (topology::Rank dst = 0; dst < machines; ++dst) {
      if (src == dst) continue;
      for (const topology::EdgeId e :
           topo.path(topo.machine_node(src), topo.machine_node(dst))) {
        ++crossing[static_cast<std::size_t>(e)];
      }
    }
  }
  const double pairs =
      static_cast<double>(machines) * static_cast<double>(machines - 1);
  double peak = std::numeric_limits<double>::infinity();
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    const std::int64_t n = crossing[static_cast<std::size_t>(e)];
    if (n == 0) continue;
    const double effective =
        link_capacity[static_cast<std::size_t>(e / 2)] *
        params.protocol_efficiency;
    peak = std::min(peak, pairs * effective / static_cast<double>(n));
  }
  return peak == std::numeric_limits<double>::infinity() ? 0.0 : peak;
}

std::vector<double> residual_link_capacities(
    const stp::SpanningTree& tree, const simnet::NetworkParams& params,
    const FaultPlan& plan, SimTime t) {
  std::vector<double> capacity =
      params.link_capacities(tree.topology.link_count());
  const std::vector<double> factors = link_factors_at(
      plan, t,
      static_cast<std::int32_t>(tree.link_of_bridge_link.size()));
  for (std::size_t l = 0; l < tree.link_of_bridge_link.size(); ++l) {
    const topology::LinkId link = tree.link_of_bridge_link[l];
    if (link >= 0) {
      capacity[static_cast<std::size_t>(link)] *= factors[l];
    }
  }
  return capacity;
}

RepairResult repair_schedule(const stp::BridgeNetwork& network,
                             const core::Schedule& schedule,
                             std::int32_t splice_phase,
                             const FaultPlan& plan, SimTime t) {
  AAPC_REQUIRE(splice_phase >= 0 && splice_phase <= schedule.phase_count(),
               "splice phase " << splice_phase << " outside schedule with "
                               << schedule.phase_count() << " phases");
  const auto wall_start = std::chrono::steady_clock::now();
  RepairResult result;
  result.residual = elect_residual(network, plan, t);
  // The remainder is every message from the splice phase on.
  const std::int64_t first = schedule.phase_begin.empty()
                                 ? 0
                                 : schedule.phase_begin[splice_phase];
  const core::Pattern remainder_pattern(
      schedule.messages.begin() + static_cast<std::ptrdiff_t>(first),
      schedule.messages.end());
  if (!remainder_pattern.empty()) {
    result.remainder =
        core::greedy_schedule(result.residual.topology, remainder_pattern);
  }
  result.repair_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace aapc::faults
