// Top-level entry point of the paper's contribution: topology in,
// contention-free optimal AAPC schedule out.
#pragma once

#include "aapc/core/assign.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/schedule.hpp"

namespace aapc::core {

struct SchedulerOptions {
  AssignmentOptions assignment;

  /// Executes the Figure-4 emission units (core/hierarchical.hpp);
  /// nullptr means run inline on the calling thread. The schedule is
  /// the same either way.
  TaskRunner runner = nullptr;
};

/// Builds the contention-free AAPC schedule for `topo`:
///   |M| <= 1 : empty schedule;
///   |M| == 2 : one phase holding both directions (duplex links);
///   |M| >= 3 : §4 pipeline (decompose -> extended ring -> Figure 4).
/// The result always satisfies the paper's Theorem; callers wanting an
/// independent check run core::verify_schedule.
Schedule build_aapc_schedule(const topology::Topology& topo,
                             const SchedulerOptions& options = {});

}  // namespace aapc::core
