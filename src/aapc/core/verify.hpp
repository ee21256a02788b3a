// Independent schedule verifier.
//
// Checks the three §4 conditions directly against the topology, using
// nothing from the construction code (paths are recomputed from the
// tree):
//   (1) every AAPC message appears exactly once across the phases;
//   (2) no two messages within a phase share a directed edge;
//   (3) the number of phases equals the AAPC load of the topology
//       (optimality — optional, since non-optimal schedules from the
//       baselines can also be checked for (1) and (2)).
//
// One kernel checks condition (2) for all three entry points. Each call
// first builds a path table — every rank's up-edges, root first, from
// the tree's parent, depth and edge_between — in O(|M|·depth); a path
// is then the two ranks' rows below their common prefix, the same edges
// in the same order as Topology::path. The kernel walks a range of
// phases with its own stamped per-edge counters, so ranges are
// independent: with a runner, a schedule above kTaskGrain messages is
// cut into phase ranges that run as tasks, and their violations are
// joined in phase order. The report, and any throw, is the same with
// or without a runner.
#pragma once

#include <string>
#include <vector>

#include "aapc/core/schedule.hpp"
#include "aapc/core/tasks.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::core {

struct VerifyOptions {
  /// Also require phase_count == topo.aapc_load().
  bool require_optimal_phase_count = true;
};

struct VerifyReport {
  bool ok = true;
  /// Human-readable description of each violation found (empty when ok).
  std::vector<std::string> violations;

  /// Maximum number of messages crossing any directed edge within a
  /// single phase (1 for a contention-free schedule).
  std::int32_t max_edge_multiplicity = 0;

  std::string summary() const;
};

/// Verify `schedule` against `topo`. Never throws on a bad schedule —
/// all problems are reported; throws only on malformed inputs (ranks out
/// of range). Coverage is recorded in a bit matrix (|M|²/8 bytes) and
/// recounted exactly only when a pair is missing or repeated.
VerifyReport verify_schedule(const topology::Topology& topo,
                             const Schedule& schedule,
                             const VerifyOptions& options = {},
                             const TaskRunner& runner = nullptr);

/// Verify a schedule of an arbitrary message multiset (greedy/irregular
/// schedules): condition (1) becomes "realizes `expected` exactly, as a
/// multiset"; condition (2) is unchanged; condition (3) compares the
/// phase count against the pattern load lower bound when
/// require_optimal_phase_count is set.
VerifyReport verify_schedule_pattern(const topology::Topology& topo,
                                     const Schedule& schedule,
                                     const std::vector<Message>& expected,
                                     const VerifyOptions& options = {},
                                     const TaskRunner& runner = nullptr);

/// Cheap runtime invariant for the execution pipeline: checks only
/// condition (2) — no two messages within any phase share a directed
/// edge — and throws InvalidArgument naming the offending phase and
/// edge. Unlike verify_schedule it makes no coverage or optimality
/// demands, so it also accepts partial schedules (resilience
/// prefix/remainder legs) and deliberately non-optimal baselines.
/// O(total path length); the lowering pipeline runs it on every
/// schedule it lowers, so a corrupted or mis-repaired schedule fails
/// loudly at execution time instead of silently producing contended
/// timings.
void require_contention_free(const topology::Topology& topo,
                             const Schedule& schedule,
                             const TaskRunner& runner = nullptr);

}  // namespace aapc::core
