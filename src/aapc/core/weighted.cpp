#include "aapc/core/weighted.hpp"

#include <algorithm>

#include "aapc/common/error.hpp"
#include "aapc/core/scheduler.hpp"

namespace aapc::core {

void require_link_rates(const topology::Topology& topo,
                        const LinkRates& link_rate) {
  AAPC_REQUIRE(static_cast<std::int32_t>(link_rate.size()) ==
                   topo.link_count(),
               "link_rate covers " << link_rate.size()
                                   << " links but the topology has "
                                   << topo.link_count());
  for (std::size_t l = 0; l < link_rate.size(); ++l) {
    AAPC_REQUIRE(link_rate[l] > 0,
                 "link " << l << " has rate " << link_rate[l]
                         << "; a down link cannot carry a schedule — "
                            "re-elect the tree first");
  }
}

double path_slowness(const std::vector<topology::EdgeId>& path,
                     const LinkRates& link_rate) {
  double min_rate = 1.0;
  for (const topology::EdgeId e : path) {
    min_rate = std::min(min_rate,
                        link_rate[static_cast<std::size_t>(e) / 2]);
  }
  return 1.0 / min_rate;
}

bool uniform_rates(const LinkRates& link_rate) {
  for (const double rate : link_rate) {
    if (rate != link_rate.front()) return false;
  }
  return true;
}

double weighted_pattern_load(const topology::Topology& topo,
                             const Pattern& pattern,
                             const LinkRates& link_rate) {
  require_link_rates(topo, link_rate);
  std::vector<std::int64_t> edge_load(
      static_cast<std::size_t>(topo.directed_edge_count()), 0);
  for (const Message& m : pattern) {
    for (const topology::EdgeId e :
         topo.path(topo.machine_node(m.src), topo.machine_node(m.dst))) {
      edge_load[static_cast<std::size_t>(e)] += 1;
    }
  }
  double load = 0;
  for (std::size_t e = 0; e < edge_load.size(); ++e) {
    load = std::max(load, static_cast<double>(edge_load[e]) /
                              link_rate[e / 2]);
  }
  return load;
}

double message_slowness(const topology::Topology& topo, const Message& message,
                        const LinkRates& link_rate) {
  require_link_rates(topo, link_rate);
  return path_slowness(topo.path(topo.machine_node(message.src),
                                 topo.machine_node(message.dst)),
                       link_rate);
}

double weighted_schedule_cost(const topology::Topology& topo,
                              const Schedule& schedule,
                              const LinkRates& link_rate) {
  require_link_rates(topo, link_rate);
  double cost = 0;
  std::vector<topology::EdgeId> path;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    double phase_cost = 0;
    for (const Message& m : schedule.phase(p)) {
      topo.path_into(topo.machine_node(m.src), topo.machine_node(m.dst),
                     path);
      phase_cost = std::max(phase_cost, path_slowness(path, link_rate));
    }
    cost += phase_cost;
  }
  return cost;
}

Schedule build_aapc_schedule_weighted(const topology::Topology& topo,
                                      const LinkRates& link_rate) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  require_link_rates(topo, link_rate);
  if (uniform_rates(link_rate)) return build_aapc_schedule(topo);

  Schedule optimal = build_aapc_schedule(topo);
  if (topo.machine_count() <= 1) return optimal;
  Schedule weighted = greedy_schedule(topo, aapc_pattern(topo), link_rate);
  // Strictly-less comparison: ties keep the paper's schedule, whose
  // phase count is optimal (fewer synchronization rounds at equal cost).
  const double optimal_cost =
      weighted_schedule_cost(topo, optimal, link_rate);
  const double weighted_cost =
      weighted_schedule_cost(topo, weighted, link_rate);
  return weighted_cost < optimal_cost ? std::move(weighted)
                                      : std::move(optimal);
}

}  // namespace aapc::core
