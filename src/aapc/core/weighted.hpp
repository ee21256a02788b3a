// Heterogeneous-link generalization of the paper's scheduling model.
//
// §3's peak formula and the §4 optimality argument assume every link
// runs at one nominal rate. Under degraded operation (faults/repair)
// links run at *fractions* of nominal, and the right objective is no
// longer phase count: a phase is as slow as its slowest message, so a
// schedule's completion time is the sum over phases of the largest
// per-message slowness. This module restates the bottleneck-load lower
// bound and the greedy scheduler in that weighted model:
//
//   slowness(m)  = 1 / min rate on m's tree path      (1 = nominal)
//   cost(S)      = sum over phases p of max slowness in p
//   weighted load = max over directed edges e of  n_e / rate(e)
//
// Any contention-free schedule satisfies cost >= weighted load (the
// n_e messages of edge e occupy n_e distinct phases, each costing at
// least 1/rate(e)). With uniform rates both sides divide by the common
// rate and the bound degenerates to the paper's phase-count bound.
//
// build_aapc_schedule_weighted() is the drop-in scheduler for degraded
// trees: on uniform rates it returns exactly the paper's optimal
// schedule; otherwise it races the rate-blind optimal schedule against
// the slowest-first greedy (core::greedy_schedule at the given rates,
// which aligns messages of degraded links into shared slow phases
// instead of paying for each separately) and keeps whichever costs
// less — so it is never worse than scheduling blind.
#pragma once

#include <vector>

#include "aapc/core/greedy.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::core {

/// Throws InvalidArgument unless `link_rate` holds one rate > 0 per
/// link of `topo` (LinkRates, core/greedy.hpp).
void require_link_rates(const topology::Topology& topo,
                        const LinkRates& link_rate);

/// True when every rate equals the first (the uniform special case all
/// weighted entry points reduce to the unweighted model for).
bool uniform_rates(const LinkRates& link_rate);

/// Weighted bottleneck load of `pattern`: max over directed edges of
/// n_e / rate(e). Lower-bounds weighted_schedule_cost of any
/// contention-free schedule realizing the pattern.
double weighted_pattern_load(const topology::Topology& topo,
                             const Pattern& pattern,
                             const LinkRates& link_rate);

/// Slowness of one message: 1 / min rate along its tree path.
double message_slowness(const topology::Topology& topo, const Message& message,
                        const LinkRates& link_rate);

/// Slowness of a message routed over `path` (directed edges of a
/// topology `link_rate` was validated against): 1 / min rate along it.
double path_slowness(const std::vector<topology::EdgeId>& path,
                     const LinkRates& link_rate);

/// Cost of `schedule` at `link_rate`: sum over phases of the largest
/// message slowness (empty phases cost 0). Uniform nominal rates make
/// this exactly the phase count.
double weighted_schedule_cost(const topology::Topology& topo,
                              const Schedule& schedule,
                              const LinkRates& link_rate);

/// AAPC schedule for a tree with heterogeneous link rates. Uniform
/// rates return build_aapc_schedule(topo) verbatim (bit-identical).
/// Otherwise both the rate-blind optimal schedule and the greedy at
/// `link_rate` are built and the one with the lower weighted cost wins
/// (ties keep the optimal-phase-count schedule). The result is always
/// contention-free and never costs more than the paper's schedule at
/// the given rates.
Schedule build_aapc_schedule_weighted(const topology::Topology& topo,
                                      const LinkRates& link_rate);

}  // namespace aapc::core
