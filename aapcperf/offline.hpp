// Inputs and helpers the offline workloads share with the traced run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "aapc/core/schedule.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/mpisim/program.hpp"
#include "perf.hpp"

namespace aapc::perf {

/// verify_schedule (peak-bound phase count) for alltoall,
/// verify_collective_schedule otherwise; empty string when it passes.
std::string verify_compiled(const CompileItem& item,
                            const core::Schedule& schedule);

/// One simulated collective: a program set on a topology.
struct SimCase {
  std::string name;
  std::shared_ptr<const topology::Topology> topo;
  Bytes msize = 0;
  mpisim::ProgramSet programs;
  bool generated = false;  // the paper's routine (counts in peak_ratio)
};
/// Paper topologies (a), (b), (c) with generated, LAM and MPICH at
/// 64 KiB, plus the generated routine on a 256-rank fat tree.
std::vector<SimCase> simulate_cases();
/// Default executor parameters (fixed jitter stream), optionally with
/// per-message traces.
mpisim::ExecutorParams sim_params(bool record_trace);

}  // namespace aapc::perf
