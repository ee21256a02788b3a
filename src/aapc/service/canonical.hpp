// Topology canonicalization for the schedule-compilation service.
//
// Two clusters that differ only in how ranks and switches are labeled
// have isomorphic trees, and the paper's algorithm produces structurally
// identical schedules for them. The service therefore caches compiled
// schedules under an *canonical form* of the topology: an AHU-style
// encoding (Aho/Hopcroft/Ullman tree canonization) of the machine-leaf
// tree, rooted at the tree center so the form is invariant under any
// relabeling of ranks, switches, or insertion order.
//
// canonicalize() also returns the rank permutation induced by the
// canonizing isomorphism, so a schedule compiled once on the canonical
// topology can be rewritten into any caller's labeling
// (core::relabel_schedule / mpisim::relabel_program_set). Because the
// permutation comes from a tree isomorphism, paths map to paths and the
// rewritten schedule is contention-free exactly when the cached one is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/topology/topology.hpp"

namespace aapc::service {

/// Canonical identity of a topology plus the mapping back to the caller.
struct Canonicalization {
  /// Stable 64-bit content hash of `canonical_form` (FNV-1a; identical
  /// across processes and platforms). It picks the cache key's bucket.
  std::uint64_t hash = 0;

  /// AHU encoding of the tree rooted at its center: machines render as
  /// "M", switches as "S(...)" with child encodings concatenated in
  /// sorted order. Any two isomorphic topologies produce byte-identical
  /// forms; the cache key holds it, so two trees whose hashes collide
  /// never share an entry.
  std::string canonical_form;

  /// to_canonical[caller rank] = rank of the same machine in the
  /// canonical topology (the one build_canonical_topology(canonical_form)
  /// reconstructs).
  std::vector<topology::Rank> to_canonical;

  /// link_to_canonical[caller LinkId] = LinkId of the same physical
  /// link in the canonical topology. Derived from the same preorder
  /// walk that assigns ranks: build_canonical_topology creates nodes in
  /// form-string order and links one per non-root node, so the link of
  /// the k-th created node is canonical LinkId k-1. A front-end binds
  /// its physical links to canonical links through this map
  /// (TopologyEpochs::bind, service/epochs.hpp).
  std::vector<topology::LinkId> link_to_canonical;
};

/// Computes the canonical form, hash, and rank permutation of `topo`.
/// `topo` must be finalized. O(n^2) worst case on path-shaped trees
/// (string-concatenation AHU) — microseconds at cluster scales.
Canonicalization canonicalize(const topology::Topology& topo);

/// Rebuilds the canonical topology from its form string: node kinds and
/// shape only (auto-generated names), machines added in canonical rank
/// order, finalized. Every caller holding an isomorphic topology
/// reconstructs the byte-identical Topology, so compiled artifacts are
/// shareable across them.
topology::Topology build_canonical_topology(const std::string& canonical_form);

/// The stable hash canonicalize() applies to a form string.
std::uint64_t canonical_hash(const std::string& canonical_form);

}  // namespace aapc::service
