// E13 — flight-recorder closed loop: localization accuracy and
// recorder overhead.
//
//  1. Localization sweep: the two-switch 4+4 fabric runs the scheduled
//     alltoall under injected faults of graded severity — straggler
//     CPU factors {1.5, 2, 3, 5} and trunk degrades to {70, 50, 30,
//     10}% capacity — and flight::analyze() must name the injected
//     culprit from the ring dump alone (top-ranked verdict). The table
//     also shows the analyzer's *measured* severity against the
//     injected one: the post-cost factor is recovered exactly, the
//     drain excess approximates 1/factor.
//  2. Recorder overhead: interleaved A/B on the BM_ExecutorLam
//     workload (LAM alltoall, 24 ranks on one switch, 64 KiB) —
//     alternating recorder-off / recorder-on samples in the same
//     process, comparing medians, so drift hits both arms equally.
//     Gate: overhead < --max-overhead-pct (default 2%).
//
// Exits nonzero when any fault goes unlocalized or the overhead gate
// fails. See EXPERIMENTS.md §E13.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/common/cli.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/analyze.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using namespace aapc;
using Clock = std::chrono::steady_clock;

/// The aapc_analyze demo fabric: two bridges, one trunk (bridge link
/// 0), four machines per side.
struct Fabric {
  stp::BridgeNetwork net;
  stp::SpanningTree tree;
};

Fabric make_fabric() {
  Fabric f;
  const stp::BridgeId s0 = f.net.add_bridge("s0", 0x8000'0000'0001ull);
  const stp::BridgeId s1 = f.net.add_bridge("s1", 0x8000'0000'0002ull);
  f.net.add_bridge_link(s0, s1);
  for (int i = 0; i < 8; ++i) {
    f.net.add_machine(str_cat("m", i), i < 4 ? s0 : s1);
  }
  f.tree = stp::compute_spanning_tree(f.net);
  return f;
}

struct SweepRow {
  std::string injected;
  bool localized = false;
  std::string top_verdict;
  double measured = 0;
};

/// Runs the fabric's scheduled alltoall under `plan` with the recorder
/// on and returns the analyzer's report.
flight::AnalysisReport run_case(const Fabric& fabric,
                                const faults::FaultPlan& plan,
                                core::Schedule& schedule,
                                sync::SyncPlan& sync_plan) {
  const topology::Topology& topo = fabric.tree.topology;
  schedule = core::build_aapc_schedule(topo);
  sync_plan = sync::build_sync_plan(topo, schedule);
  lowering::LoweringOptions lopts;
  lopts.precomputed_plan = &sync_plan;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 32_KiB, lopts);

  flight::Recorder recorder(topo.machine_count());
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.flight = &recorder;
  faults::compile(plan, net, topo.link_count(),
                  fabric.tree.link_of_bridge_link)
      .apply(exec);
  mpisim::Executor(topo, net, exec).run(set);
  return flight::analyze(flight::snapshot(recorder, "bench_flight"), topo,
                         &schedule, &sync_plan, &fabric.tree);
}

int run_localization_sweep() {
  const Fabric fabric = make_fabric();
  const topology::LinkId trunk = fabric.tree.link_of_bridge_link[0];
  core::Schedule schedule;
  sync::SyncPlan sync_plan;
  std::vector<SweepRow> rows;

  for (const double factor : {1.5, 2.0, 3.0, 5.0}) {
    faults::FaultPlan plan;
    plan.add(faults::FaultEvent::node_slowdown(0, 2, factor));
    const flight::AnalysisReport report =
        run_case(fabric, plan, schedule, sync_plan);
    SweepRow row;
    row.injected = str_cat("straggler rank 2, x", format_double(factor, 1));
    if (!report.verdicts.empty()) {
      const flight::Verdict& top = report.verdicts.front();
      row.top_verdict = flight::verdict_kind_name(top.kind);
      row.localized = top.kind == flight::VerdictKind::kStragglerRank &&
                      top.rank == 2;
      row.measured = top.severity;
    }
    rows.push_back(row);
  }
  for (const double fraction : {0.7, 0.5, 0.3, 0.1}) {
    faults::FaultPlan plan;
    plan.add(faults::FaultEvent::link_degrade(0, 0, fraction));
    const flight::AnalysisReport report =
        run_case(fabric, plan, schedule, sync_plan);
    SweepRow row;
    row.injected = str_cat("trunk at ", format_double(100 * fraction, 0),
                           "% capacity");
    if (!report.verdicts.empty()) {
      const flight::Verdict& top = report.verdicts.front();
      row.top_verdict = flight::verdict_kind_name(top.kind);
      row.localized = top.kind == flight::VerdictKind::kDegradedLink &&
                      top.link == trunk;
      row.measured = top.severity;
    }
    rows.push_back(row);
  }

  TextTable table;
  table.set_header({"injected fault", "localized", "top verdict",
                    "measured severity"});
  int missed = 0;
  for (const SweepRow& row : rows) {
    if (!row.localized) ++missed;
    table.add_row({row.injected, row.localized ? "yes" : "NO",
                   row.top_verdict.empty() ? "(none)" : row.top_verdict,
                   format_double(row.measured, 2)});
  }
  std::cout << "localization sweep (two-switch 4+4 fabric, 32 KiB)\n"
            << table.render();
  std::cout << "accuracy: " << (rows.size() - missed) << "/" << rows.size()
            << "\n\n";
  return missed;
}

/// Interleaved A/B: alternating recorder-off / recorder-on wall-clock
/// samples of the BM_ExecutorLam workload in one process, in ABBA
/// order (off-on / on-off per round pair) so load drift hits both
/// arms equally. The estimate compares each arm's *minimum* sample:
/// interference is strictly additive, so the per-arm minima converge
/// on the uncontended times and their ratio is far more stable than
/// any mean- or median-based statistic on a shared machine. Returns
/// the overhead of the recorder-on arm in percent.
double measure_overhead(std::int64_t rounds, std::int64_t inner) {
  const topology::Topology topo = topology::make_single_switch(24);
  const mpisim::ProgramSet set = baselines::lam_alltoall(24, 65536);
  const simnet::NetworkParams net;
  flight::Recorder recorder(topo.machine_count());

  const auto sample = [&](bool with_recorder) {
    mpisim::ExecutorParams exec;
    if (with_recorder) exec.flight = &recorder;
    mpisim::Executor executor(topo, net, exec);
    const Clock::time_point begin = Clock::now();
    double checksum = 0;
    for (std::int64_t i = 0; i < inner; ++i) {
      checksum += executor.run(set).completion_time;
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - begin).count();
    // Keep the compiler honest about the run results.
    return checksum > 0 ? seconds : seconds;
  };

  sample(false);  // warmup both arms
  sample(true);
  double off_best = 0;
  double on_best = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    double off_s = 0;
    double on_s = 0;
    if (r % 2 == 0) {
      off_s = sample(false);
      on_s = sample(true);
    } else {
      on_s = sample(true);
      off_s = sample(false);
    }
    if (r == 0 || off_s < off_best) off_best = off_s;
    if (r == 0 || on_s < on_best) on_best = on_s;
  }
  const double ratio = on_best / off_best;
  std::cout << "recorder overhead (LAM alltoall, 24 ranks, 64 KiB, "
            << rounds << " interleaved rounds x " << inner << " runs)\n"
            << "  recorder off: " << format_double(off_best * 1e3, 2)
            << " ms best\n"
            << "  recorder on:  " << format_double(on_best * 1e3, 2)
            << " ms best (" << recorder.total_recorded()
            << " events recorded)\n";
  return 100.0 * (ratio - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "E13: flight-recorder localization accuracy sweep and interleaved "
      "A/B recorder-overhead gate.");
  cli.add_flag("rounds", "interleaved A/B rounds", "25");
  cli.add_flag("inner", "executor runs per timing sample", "20");
  cli.add_flag("max-overhead-pct",
               "fail when the recorder-on median exceeds the recorder-off "
               "median by more than this", "2.0");
  cli.add_flag("skip-overhead", "run only the localization sweep");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  bool skip_overhead = false;
  std::int64_t rounds = 0;
  std::int64_t inner = 0;
  double gate = 0;
  try {
    skip_overhead = cli.get_bool("skip-overhead", false);
    rounds = static_cast<std::int64_t>(cli.get_u64("rounds", 25, INT64_MAX));
    inner = static_cast<std::int64_t>(cli.get_u64("inner", 20, INT64_MAX));
    gate = cli.get_double("max-overhead-pct", 2.0);
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  const int missed = run_localization_sweep();
  if (missed > 0) {
    std::cout << "FAIL: " << missed << " injected fault(s) not localized\n";
    return 1;
  }
  if (skip_overhead) {
    std::cout << "PASS: all faults localized (overhead gate skipped)\n";
    return 0;
  }

  const double overhead_pct = measure_overhead(rounds, inner);
  std::cout << "  overhead: " << format_double(overhead_pct, 2) << "% (gate "
            << format_double(gate, 1) << "%)\n";
  if (overhead_pct >= gate) {
    std::cout << "FAIL: recorder overhead above the gate\n";
    return 1;
  }
  std::cout << "PASS: all faults localized, overhead "
            << format_double(overhead_pct, 2) << "% < "
            << format_double(gate, 1) << "%\n";
  return 0;
}
