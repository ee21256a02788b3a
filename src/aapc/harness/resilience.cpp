#include "aapc/harness/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/harness/experiment.hpp"

namespace aapc::harness {
namespace {

/// Phases [begin, end) of `schedule`, renumbered from 0. The arena is
/// phase-major, so a slice is one contiguous copy plus shifted offsets.
core::Schedule slice_phases(const core::Schedule& schedule, std::int32_t begin,
                            std::int32_t end) {
  core::Schedule result;
  const std::int64_t first = schedule.phase_begin[begin];
  result.messages.assign(
      schedule.messages.begin() + static_cast<std::ptrdiff_t>(first),
      schedule.messages.begin() +
          static_cast<std::ptrdiff_t>(schedule.phase_begin[end]));
  result.phase_begin.reserve(static_cast<std::size_t>(end - begin) + 1);
  for (std::int32_t p = begin; p <= end; ++p) {
    result.phase_begin.push_back(schedule.phase_begin[p] - first);
  }
  return result;
}

std::string first_line(const std::string& text) {
  const std::size_t eol = text.find('\n');
  return eol == std::string::npos ? text : text.substr(0, eol);
}

}  // namespace

std::string ResilienceReport::to_string() const {
  std::ostringstream os;
  os << title << " (msize " << format_size(msize) << "B, splice at phase "
     << splice_phase << "/" << healthy_phases << ", remainder "
     << remainder_phases << " phases)\n";
  os << "  completion: healthy "
     << format_double(to_milliseconds(healthy_completion), 2) << "ms | stale ";
  if (stale_completed) {
    os << format_double(to_milliseconds(stale_completion), 2) << "ms";
  } else {
    os << "FAILED (" << first_line(stale_failure) << ")";
  }
  os << " | repaired " << format_double(to_milliseconds(repaired_completion), 2)
     << "ms\n";
  os << "    repaired = prefix "
     << format_double(to_milliseconds(prefix_completion), 2) << " + detect "
     << format_double(
            to_milliseconds(repaired_completion - prefix_completion -
                            remainder_completion),
            2)
     << " + remainder " << format_double(to_milliseconds(remainder_completion), 2)
     << " ms\n";
  os << "  peak Mbps: healthy " << format_double(healthy_peak_mbps, 1)
     << " | degraded(original tree) " << format_double(degraded_peak_mbps, 1)
     << " | residual(repaired tree) " << format_double(residual_peak_mbps, 1)
     << "\n";
  os << "  achieved Mbps: healthy " << format_double(healthy_mbps, 1)
     << " | stale " << (stale_completed ? format_double(stale_mbps, 1) : "-")
     << " | repaired " << format_double(repaired_mbps, 1) << "\n";
  os << "  recovered ratio " << format_double(recovered_ratio(), 3)
     << " vs degraded peak ratio " << format_double(degraded_peak_ratio(), 3)
     << "; repair wall clock "
     << format_double(repair_wall_seconds * 1e3, 3) << " ms\n";
  return os.str();
}

ResilienceReport run_resilience(const stp::BridgeNetwork& network,
                                const ResilienceScenario& scenario) {
  scenario.plan.validate();
  const stp::SpanningTree tree = stp::compute_spanning_tree(network);
  const topology::Topology& topo = tree.topology;
  const core::Schedule schedule = core::build_aapc_schedule(topo);

  ResilienceReport report;
  report.title = scenario.title;
  report.msize = scenario.msize;
  report.healthy_phases = schedule.phase_count();
  const auto mbps = [&](SimTime completion) {
    return aapc_mbps(topo.machine_count(), scenario.msize, completion);
  };

  // Leg 1: healthy baseline.
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, scenario.msize,
                               scenario.lowering);
  report.healthy_completion =
      mpisim::Executor(topo, scenario.net, scenario.exec)
          .run(programs)
          .completion_time;
  report.healthy_mbps = mbps(report.healthy_completion);

  // Leg 2: the stale schedule under the fault plan — same programs, the
  // compiled fault timeline injected into the executor.
  const faults::CompiledFaults compiled =
      faults::compile(scenario.plan, scenario.net, topo.link_count(),
                      tree.link_of_bridge_link);
  mpisim::ExecutorParams stale_exec = scenario.exec;
  compiled.apply(stale_exec);
  try {
    report.stale_completion =
        mpisim::Executor(topo, scenario.net, stale_exec)
            .run(programs)
            .completion_time;
    report.stale_completed = true;
    report.stale_mbps = mbps(report.stale_completion);
  } catch (const mpisim::TransferAborted& aborted) {
    report.stale_failure = aborted.what();
  } catch (const mpisim::ExecutionStalled& stalled) {
    report.stale_failure = stalled.what();
  }

  // Splice phase: scripted, or the first boundary after the fault-onset
  // fraction of the healthy timeline.
  const SimTime onset = scenario.plan.onset();
  std::int32_t splice = scenario.splice_phase;
  if (splice < 0) {
    const double fraction = report.healthy_completion > 0
                                ? onset / report.healthy_completion
                                : 0.0;
    splice = static_cast<std::int32_t>(
        std::ceil(fraction * static_cast<double>(schedule.phase_count())));
    splice = std::clamp(splice, 1, schedule.phase_count());
  }
  AAPC_REQUIRE(splice >= 1 && splice <= schedule.phase_count(),
               "splice phase " << splice << " outside schedule with "
                               << schedule.phase_count() << " phases");
  report.splice_phase = splice;

  // Leg 3: prefix phases on the healthy tree (the fault bites at the
  // splice boundary in this model).
  const core::Schedule prefix = slice_phases(schedule, 0, splice);
  report.prefix_completion =
      mpisim::Executor(topo, scenario.net, scenario.exec)
          .run(lowering::lower_schedule(topo, prefix, scenario.msize,
                                        scenario.lowering))
          .completion_time;

  // Repair: re-elect on the residual bridge graph, reschedule the tail.
  const SimTime repair_time = onset + scenario.detection_latency;
  const faults::RepairResult repair = faults::repair_schedule(
      network, schedule, splice, scenario.plan, repair_time);
  report.repair_wall_seconds = repair.repair_wall_seconds;
  report.remainder_phases = repair.remainder.phase_count();

  // Leg 4: remainder on the residual tree at the capacities in force at
  // repair time (frozen — later scripted recoveries are not credited).
  // The self copy already happened in the prefix.
  lowering::LoweringOptions remainder_lowering = scenario.lowering;
  remainder_lowering.include_self_copy = false;
  const mpisim::ProgramSet remainder_programs =
      lowering::lower_schedule(repair.residual.topology, repair.remainder,
                               scenario.msize, remainder_lowering);
  const std::vector<double> residual_caps = faults::residual_link_capacities(
      repair.residual, scenario.net, scenario.plan, repair_time);
  report.remainder_completion =
      mpisim::Executor(repair.residual.topology,
                       with_link_capacities(scenario.net, residual_caps),
                       scenario.exec)
          .run(remainder_programs)
          .completion_time;
  report.repaired_completion = report.prefix_completion +
                               scenario.detection_latency +
                               scenario.repair_overhead +
                               report.remainder_completion;
  report.repaired_mbps = mbps(report.repaired_completion);

  // Capacity bounds.
  report.healthy_peak_mbps = bytes_per_sec_to_mbps(faults::aapc_peak_throughput(
      topo, scenario.net, scenario.net.link_capacities(topo.link_count())));
  report.degraded_peak_mbps =
      bytes_per_sec_to_mbps(faults::aapc_peak_throughput(
          topo, scenario.net,
          faults::residual_link_capacities(tree, scenario.net, scenario.plan,
                                           repair_time)));
  report.residual_peak_mbps =
      bytes_per_sec_to_mbps(faults::aapc_peak_throughput(
          repair.residual.topology, scenario.net, residual_caps));
  return report;
}

}  // namespace aapc::harness
