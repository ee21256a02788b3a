// Global and local message assignment (§4.3, Figure 4).
//
// Input: a Decomposition (root + ordered subtrees) and the GlobalSchedule
// phase spans. Output: the complete per-phase message placement covering
// all |M| * (|M| - 1) AAPC messages in |M0| * (|M| - |M0|) phases with no
// intra-phase contention (the paper's Theorem).
//
// Step map (Figure 4):
//   1. t0 → tj   rotate pattern, receivers aligned to the designated-
//                receiver convention t_{j,(p-P) mod |Mj|}.
//   2. ti → t0   receivers follow the Table-3 round mapping against the
//                t0 sender sequence; senders broadcast in rank order.
//   3. locals in t0 embedded in the first |M0| * (|M0| - 1) phases.
//   4. ti → tj (i > j >= 1)  broadcast pattern (receiver-aligned).
//   5. locals in ti embedded in the phases of ti → t(i-1).
//   6. ti → tj (i < j, i != 0)  broadcast or rotate (free choice).
#pragma once

#include "aapc/core/decompose.hpp"
#include "aapc/core/schedule.hpp"

namespace aapc::core {

struct AssignmentOptions {
  /// Pattern for Step 6 groups; the paper allows either. Broadcast is
  /// the default; kRotate exists for the pattern ablation benchmark.
  enum class Step6Pattern { kBroadcast, kRotate };
  Step6Pattern step6 = Step6Pattern::kBroadcast;
};

/// Runs Figure 4 over a decomposition in one sequential pass. This is
/// the reference that tests hold assign_messages_hierarchical (the path
/// build_aapc_schedule and the service run) to, bit for bit. All
/// construction-time invariants (span tiling, receiver alignment, local
/// coverage) are AAPC_CHECKed; use core::verify_schedule for the
/// independent end-to-end check.
Schedule assign_messages(const Decomposition& dec,
                         const AssignmentOptions& options = {});

}  // namespace aapc::core
