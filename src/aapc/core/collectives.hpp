// Collective schedule builders beyond AAPC.
//
// The phase-scheduling pipeline is collective-agnostic: a Schedule is
// just a contention-free phase partition of some message multiset.
// This module supplies the multisets and builders for the non-AAPC
// kinds in CollectiveKind:
//
//  * allgather / reduce_scatter — pipeline (ring) schedules on the
//    tree. Machines are leaves, so switches cannot combine or split
//    blocks; the bandwidth-optimal realization is a logical ring over
//    the machines in DFS (preorder) leaf order. The n consecutive-leaf
//    paths of a DFS ring cover each directed tree edge at most once,
//    so every round is contention-free, and n−1 rounds match the
//    per-access-link lower bound of n−1 block times (each machine's
//    down-link must carry the other n−1 blocks). Allgather runs the
//    ring forward; reduce_scatter — its communication dual — runs it
//    in reverse.
//  * sparse_alltoall — personalized exchange restricted to a neighbor
//    set per rank (halo exchanges, graph partitions). The induced
//    message set goes through the greedy contention-free scheduler; a
//    fully-dense neighbor specification degenerates to the paper's
//    optimal AAPC schedule bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "aapc/core/greedy.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::core {

/// Per-rank destination sets for sparse_alltoall: neighbors[r] lists
/// the ranks rank r sends a (distinct) block to. Size must equal the
/// machine count; sets need not be symmetric.
using SparseNeighbors = std::vector<std::vector<Rank>>;

/// Machine ranks in DFS preorder of the tree (root chosen by the
/// topology's own rooting, children visited in stored neighbor order).
/// Consecutive entries — including the wrap-around pair — have
/// edge-disjoint tree paths when taken together as a ring, which is
/// what makes each ring round contention-free.
std::vector<Rank> dfs_machine_order(const topology::Topology& topo);

/// Bandwidth-optimal allgather pipeline: n−1 phases, phase r sends
/// order[p] → order[(p+1) mod n] for every p. Empty for n <= 1.
Schedule build_allgather_schedule(const topology::Topology& topo);

/// Bandwidth-optimal reduce_scatter pipeline: the reverse ring,
/// phase r sends order[p] → order[(p+n−1) mod n]. Empty for n <= 1.
Schedule build_reduce_scatter_schedule(const topology::Topology& topo);

/// Validates and canonicalizes a neighbor specification against a
/// machine count: requires one set per rank and in-range ids; returns
/// sorted, deduplicated sets with self-entries dropped. Throws
/// InvalidArgument on shape violations.
SparseNeighbors normalize_neighbors(std::int32_t machine_count,
                                    const SparseNeighbors& neighbors);

/// Whether normalized neighbor sets specify the complete AAPC pattern
/// (every rank sends to every other rank).
bool neighbors_fully_dense(std::int32_t machine_count,
                           const SparseNeighbors& normalized);

/// Contention-free schedule of the induced sparse pattern. Fully-dense
/// neighbor sets take the paper's optimal AAPC path (messages and
/// phase structure bit-identical to build_aapc_schedule); anything
/// sparser goes through greedy first-fit. `neighbors` need not be
/// normalized. The result's kind is kSparseAlltoall either way.
Schedule build_sparse_alltoall_schedule(const topology::Topology& topo,
                                        const SparseNeighbors& neighbors);

/// The message multiset a schedule of `kind` must realize on `topo`.
/// Allgather/reduce_scatter repeat their ring n−1 times (one round per
/// pipelined block); sparse uses the induced pattern (`neighbors`
/// required, normalized internally); alltoall is aapc_pattern.
Pattern collective_pattern(const topology::Topology& topo,
                           CollectiveKind kind,
                           const SparseNeighbors& neighbors = {});

/// Lower bound on contention-free phases for `kind` on `topo`: the
/// pattern load of collective_pattern. For the ring kinds this equals
/// n−1, the bandwidth-optimality bound the builders achieve.
std::int64_t collective_phase_lower_bound(
    const topology::Topology& topo, CollectiveKind kind,
    const SparseNeighbors& neighbors = {});

/// Verify a schedule against its own kind's semantics: exact multiset
/// coverage + contention freedom, with phase-count optimality required
/// for alltoall/allgather/reduce_scatter (where the builders are
/// optimal) and waived for sparse (greedy only lower-bounds). The ring
/// kinds accept ANY single Hamiltonian ring over the machines in n-1
/// phases — the service rewrites cached canonical artifacts through a
/// tree isomorphism, so a served ring need not match this topology's
/// own dfs_machine_order. `runner` reaches the condition-(2) kernel
/// (core/verify.hpp); the report is the same without it.
VerifyReport verify_collective_schedule(
    const topology::Topology& topo, const Schedule& schedule,
    const SparseNeighbors& neighbors = {}, const TaskRunner& runner = nullptr);

/// Order-insensitive FNV-1a digest of normalized neighbor sets, for
/// cache keying. Zero-cost convention: empty input hashes to the FNV
/// offset basis, and non-sparse cache keys store 0 instead.
std::uint64_t sparse_pattern_hash(const SparseNeighbors& normalized);

/// Rewrites neighbor sets through a rank permutation: the set of
/// perm[r] becomes {perm[v] : v in neighbors[r]}, re-sorted. Used by
/// the service to key and compile sparse requests in canonical rank
/// space.
SparseNeighbors relabel_neighbors(const SparseNeighbors& neighbors,
                                  const std::vector<Rank>& perm);

}  // namespace aapc::core
