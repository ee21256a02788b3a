// Greedy contention-free scheduling of arbitrary message patterns.
//
// The paper's algorithm is specific to (and optimal for) the complete
// AAPC pattern. Real applications also run *irregular* personalized
// exchanges (the paper's related work cites Liu/Wang/Prasanna for
// those). This module provides the natural baseline: greedy first-fit
// phase assignment for any set of point-to-point messages on a tree.
// It is the repository's one first-fit: irregular collectives and fault
// repair both call it.
//
// Guarantees:
//  * phases are contention-free (first-fit never places two messages
//    sharing a directed edge in one phase);
//  * phase count >= pattern load (max per-edge message count) always,
//    with equality NOT guaranteed — on full AAPC the gap versus the
//    paper's optimal scheduler is what bench/examples quantify.
#pragma once

#include <vector>

#include "aapc/core/schedule.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::core {

/// An arbitrary pattern: any multiset of messages between machine
/// ranks (duplicates allowed; they land in different phases).
using Pattern = std::vector<Message>;

/// The load of an arbitrary pattern: max over directed edges of the
/// number of messages whose path uses the edge. Lower-bounds any
/// contention-free schedule's phase count.
std::int64_t pattern_load(const topology::Topology& topo,
                          const Pattern& pattern);

/// First-fit greedy scheduling of `pattern`: each message goes into the
/// first phase where every directed edge on its path is free. Messages
/// are placed longest path first, then in input order. Self-messages
/// are rejected. The result passes core::verify_schedule with
/// require_optimal_phase_count = false.
Schedule greedy_schedule(const topology::Topology& topo,
                         const Pattern& pattern);

/// The full AAPC pattern on `topo` (all ordered machine pairs), the
/// input that makes greedy_schedule comparable with
/// build_aapc_schedule.
Pattern aapc_pattern(const topology::Topology& topo);

/// One-to-all personalized (MPI_Scatter shape): root -> every other
/// rank. Its load is |M| - 1 on the root's uplink; any contention-free
/// schedule needs exactly that many phases, which greedy achieves.
Pattern scatter_pattern(const topology::Topology& topo,
                        Rank root);

/// All-to-one personalized (MPI_Gather shape): every other rank ->
/// root.
Pattern gather_pattern(const topology::Topology& topo, Rank root);

/// Neighbor exchange of radius `k`: each rank sends to ranks
/// (r ± 1..k) mod |M| — the halo-exchange shape of stencil codes.
Pattern neighbor_exchange_pattern(const topology::Topology& topo,
                                  std::int32_t k);

}  // namespace aapc::core
