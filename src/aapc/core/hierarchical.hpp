// Hierarchical message assignment (§4 at scale).
//
// The flat assign_messages walks the six Figure-4 steps in one pass over
// a shared builder. This module restates the algorithm as a set of
// *emission units* — per-subtree and per-subtree-pair message groups
// whose phase placement is closed-form — scheduled independently and
// placed into the phase arena by a blocked, stable counting sort.
//
// Unit decomposition (canonical order = the flat staging order):
//   step 1:  one unit per group t0 → tj          (root subtree sends)
//   step 2:  one unit per group ti → t0          (sends into t0)
//   step 3:  one unit: locals inside t0          (embedded, §4.3)
//   step 4:  one unit per group ti → tj, i > j   (broadcast pattern)
//   step 5:  one unit per subtree ti's locals    (embedded in ti → t(i-1))
//   step 6:  one unit per group ti → tj, i < j   (pattern choice free)
//
// The only cross-unit data — the per-phase t0 sender/receiver mapping
// (Table 3) — is closed-form and precomputed once, read-only. Every unit
// therefore knows how many messages it emits, and at which phases,
// without depending on any other unit, so units can be blocked into
// tasks and run on any thread pool. Three passes then fill the final
// phase arena directly, each on the caller's runner:
//   count:   each task counts its messages per block of 4096 phases
//            (and range-checks every phase);
//   scatter: a prefix sum over (block, task) gives each task one write
//            cursor per block, and each task emits again, writing its
//            messages in emission order and each one's phase within its
//            block to a transient 2-byte key beside the arena;
//   settle:  each block is sorted by a stable counting sort on that key
//            and fills its part of phase_begin.
// Within a phase the order is then (task, emission) order, the flat
// staging order, so the result is bit-identical to assign_messages for
// every runner and thread count.
#pragma once

#include <cstdint>

#include "aapc/core/assign.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/core/tasks.hpp"

namespace aapc::core {

struct HierarchicalOptions {
  AssignmentOptions assignment;

  /// Target messages per task; 0 picks a default that yields a few
  /// tasks per step. Units are never split, so a single huge group
  /// can exceed the target.
  std::int64_t messages_per_task = 0;
};

/// Hierarchical/parallel twin of assign_messages: same Decomposition in,
/// bit-identical Schedule out. `runner` runs the count, scatter and
/// settle passes; only the prefix sum between them and the arena's
/// allocation run on the calling thread.
Schedule assign_messages_hierarchical(const Decomposition& dec,
                                      const AssignmentOptions& options = {},
                                      const TaskRunner& runner = nullptr);

Schedule assign_messages_hierarchical(const Decomposition& dec,
                                      const HierarchicalOptions& options,
                                      const TaskRunner& runner);

}  // namespace aapc::core
