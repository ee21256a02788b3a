// Pair-wise synchronization planning (§5).
//
// The phases of a schedule are only contention-free if they do not bleed
// into one another. Rather than a barrier per phase, the paper inserts a
// *pair-wise synchronization* for every pair of messages (m1 in phase p,
// m2 in phase q > p) that share a directed edge: the sender of m1 sends
// a small token to the sender of m2 after m1 completes, and m2 starts
// only after the token arrives. Synchronizations implied by others
// (transitively) are *redundant* and removed, minimizing token traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aapc/core/schedule.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::sync {

/// A dependency: message `from` (index into Schedule::messages) must
/// complete before message `to` starts.
struct SyncEdge {
  std::int32_t from = -1;
  std::int32_t to = -1;

  friend bool operator==(const SyncEdge&, const SyncEdge&) = default;
  friend auto operator<=>(const SyncEdge&, const SyncEdge&) = default;
};

struct SyncPlanOptions {
  /// Remove transitively implied synchronizations (§5's "redundant
  /// synchronizations"). Off only for the ablation benchmark.
  bool remove_redundant = true;

  enum class Construction {
    /// The paper's §5 procedure: test every message pair, then reduce.
    /// O(n^2) pair tests — exact, fine up to a few thousand messages.
    kAllPairs,
    /// Scalable equivalent: for each directed edge, chain its users in
    /// phase order (consecutive pairs only). The transitive closure —
    /// i.e. which pairs end up ordered — is identical to kAllPairs, so
    /// the serialization guarantee is unchanged; the unreduced edge
    /// count is near-minimal already. O(messages x path length).
    kEdgeChains,
    /// kAllPairs for small schedules, kEdgeChains beyond ~4000 messages.
    kAuto,
  };
  Construction construction = Construction::kAuto;
};

struct SyncPlan {
  /// Surviving dependencies, sorted by (from, to).
  std::vector<SyncEdge> edges;
  /// Count before redundancy removal (the full dependence graph).
  std::int64_t edges_before_reduction = 0;
  /// Edges whose two messages have different senders — these cost a
  /// network token; same-sender edges lower to a local wait.
  std::int64_t cross_node_edges = 0;
};

/// Builds the contention-dependence graph of `schedule` on `topo` and
/// (optionally) removes redundant synchronizations. The phase offsets
/// must partition the arena: start at 0, never decrease and end at the
/// message count (InvalidArgument otherwise).
SyncPlan build_sync_plan(const topology::Topology& topo,
                         const core::Schedule& schedule,
                         const SyncPlanOptions& options = {});

/// Structural analysis of a plan: how deep the dependency chains are and
/// how the serialization load is distributed. The critical path bounds
/// the run below by (chain length) x (per-message time) — it explains
/// why per-phase overheads multiply on trunk-bound topologies.
struct PlanAnalysis {
  /// Vertices on the longest dependency chain (messages, inclusive).
  std::int32_t critical_path_messages = 0;
  /// Maximum in/out degree over messages.
  std::int32_t max_in_degree = 0;
  std::int32_t max_out_degree = 0;
  /// Edges per message (mean).
  double avg_degree = 0;
};

/// Analyzes `plan` for a schedule of `message_count` messages.
PlanAnalysis analyze_plan(const SyncPlan& plan, std::int64_t message_count);

/// The dependence graph in compressed sparse rows, indexed by message.
/// Entries are positions in SyncPlan::edges, so walking a message's
/// edges also yields each edge's index (the lowering's token tag); the
/// neighbor is plan.edges[position].from for in(), .to for out(). Both
/// lists keep plan order. Shared by the lowering (which walks
/// predecessors/successors to emit waits and tokens) and
/// flight::analyze() (which replays the graph to compute ready times and
/// slack from recorded completions).
struct PlanAdjacency {
  /// message_count + 1 offsets into in_edges / out_edges.
  std::vector<std::int32_t> in_begin;
  std::vector<std::int32_t> in_edges;
  std::vector<std::int32_t> out_begin;
  std::vector<std::int32_t> out_edges;

  std::span<const std::int32_t> in(std::size_t message) const {
    return {in_edges.data() + in_begin[message],
            in_edges.data() + in_begin[message + 1]};
  }
  std::span<const std::int32_t> out(std::size_t message) const {
    return {out_edges.data() + out_begin[message],
            out_edges.data() + out_begin[message + 1]};
  }
};

/// Builds the adjacency of `plan` over `message_count` messages;
/// validates that every edge is forward and in range.
PlanAdjacency build_adjacency(const SyncPlan& plan,
                              std::int64_t message_count);

}  // namespace aapc::sync
