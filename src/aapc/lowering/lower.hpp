// Lowering: schedule (+ synchronization plan) -> per-rank mpisim
// programs. This is the executable twin of the §5 routine generator's C
// output: the same operation sequence the generated MPI_Alltoall would
// perform, expressed as mpisim ops.
//
// Per-rank structure (kPairwise mode):
//   copy own block
//   prepost one irecv per incoming data message (phase order)
//   for each phase p in ascending order:
//     if this rank sends message m at p:
//       for each sync edge (m' -> m):
//         same sender  -> wait(m' send request)       (implicit ordering)
//         other sender -> irecv+wait sync token       (pair-wise sync)
//       isend(data)
//       if m has cross-node dependents: wait(m), isend one token each
//   waitall
#pragma once

#include "aapc/common/units.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::lowering {

enum class SyncMode {
  /// Pair-wise synchronization messages after transitive reduction (§5,
  /// the paper's implementation).
  kPairwise,
  /// A barrier between consecutive phases (§5's strawman; slow without
  /// dedicated barrier hardware).
  kBarrier,
  /// No inter-phase synchronization: phase order is only the posting
  /// order (ablation: shows the end-node/link contention the paper
  /// observes at 32-64 KB without synchronizations).
  kNone,
};

/// Payload of one synchronization token.
inline constexpr Bytes kSyncTokenBytes = 4;

struct LoweringOptions {
  SyncMode sync = SyncMode::kPairwise;
  /// Remove transitively redundant synchronizations (§5). Ablation knob.
  bool reduce_redundant_syncs = true;
  /// Model the rank's copy of its own AAPC block.
  bool include_self_copy = true;
  /// A sync plan already built for exactly this schedule (kPairwise
  /// only). Non-null skips the internal build_sync_plan call — the
  /// compilation service builds the plan itself, to time the sync stage
  /// on its own, and passes it here. Must outlive the lowering call; must
  /// come from the same schedule, or the emitted token pattern is wrong.
  /// Its edges must be strictly sorted by (from, to), as build_sync_plan
  /// returns them (an edge's position is its token tag); InvalidArgument
  /// otherwise.
  const sync::SyncPlan* precomputed_plan = nullptr;
};

/// Statistics accompanying a lowered program set.
struct LoweringInfo {
  std::int64_t data_messages = 0;
  std::int64_t sync_messages = 0;        // network tokens (cross-node)
  std::int64_t local_wait_dependencies = 0;  // same-sender orderings
  std::int64_t sync_edges_before_reduction = 0;
};

/// Lowers `schedule` for message size `msize`. The schedule must cover
/// machine ranks of `topo` (as produced by core::build_aapc_schedule).
mpisim::ProgramSet lower_schedule(const topology::Topology& topo,
                                  const core::Schedule& schedule,
                                  Bytes msize,
                                  const LoweringOptions& options = {},
                                  LoweringInfo* info = nullptr);

/// Irregular variant (MPI_Alltoallv-style): per-pair message sizes.
/// `size_matrix` is row-major |M| x |M|; entry [src * |M| + dst] is the
/// payload src sends to dst (self entries ignored; zero-byte pairs are
/// still scheduled as minimal messages so the phase structure and
/// synchronization stay valid). The self copy uses the diagonal entry.
mpisim::ProgramSet lower_schedule_irregular(
    const topology::Topology& topo, const core::Schedule& schedule,
    const std::vector<Bytes>& size_matrix,
    const LoweringOptions& options = {}, LoweringInfo* info = nullptr);

}  // namespace aapc::lowering
