// E12 — churn: what each serving-path answer is worth on a live
// trunk degrade (harness/churn.hpp; serving mechanics in
// docs/SERVICE.md §churn, wire in docs/NETD.md).
//
// Scenario: an edge star — hub s1 carries no machines; s0 and s2 each
// attach 4 machines over full-rate trunks, s3 attaches one machine over
// the trunk under test. The s0/s2 trunks carry 20 pair-loads per
// direction and pin the schedule at 20 phases; the s3 trunk carries
// only 8. Degrading it therefore leaves the weighted bottleneck load
// at 20 — slow traffic does NOT need to touch every phase, which is
// the regime where phase structure matters. The stale schedule is the
// one the service keeps serving (stale=true) until the weighted
// recompilation lands; the serving path must never replace it with a
// worse one.
//
// Gates (exit nonzero on violation), on every row:
//   1. revalidated throughput  >=  stale throughput;
//   2. revalidated cost        <=  stale cost  (the weighted model
//      agrees with the executor);
//   3. every leg's cost >= the weighted load bound (sanity).
//
// Run:  ./bench_churn [--msize 64K] [--factors 0.75,0.5,0.25]
#include <iostream>
#include <string>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/harness/churn.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/stp/stp.hpp"

namespace {

using namespace aapc;

/// Hub s1 with no machines; 1 machine on s3, 4 each on s0 and s2.
/// Bridge link 0 (s1-s3) is the trunk under test. s3 and its machine
/// come first so the slow machine is rank 0.
stp::BridgeNetwork make_edge_star() {
  stp::BridgeNetwork net;
  const stp::BridgeId s1 = net.add_bridge("s1", 0x8000'0000'0001ull);
  const stp::BridgeId s3 = net.add_bridge("s3", 0x8000'0000'0002ull);
  const stp::BridgeId s0 = net.add_bridge("s0", 0x8000'0000'0003ull);
  const stp::BridgeId s2 = net.add_bridge("s2", 0x8000'0000'0004ull);
  net.add_bridge_link(s1, s3, 19);  // bridge link 0: trunk under test
  net.add_bridge_link(s1, s0, 19);  // bridge link 1
  net.add_bridge_link(s1, s2, 19);  // bridge link 2
  net.add_machine("c0", s3);
  for (int m = 0; m < 4; ++m) net.add_machine("a" + std::to_string(m), s0);
  for (int m = 0; m < 4; ++m) net.add_machine("b" + std::to_string(m), s2);
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Churn benchmark: stale vs weighted-revalidated schedules on a live "
      "trunk degrade.");
  cli.add_flag("msize", "message size per rank pair", "64K");
  cli.add_flag("factors", "residual trunk fractions to sweep",
               "0.75,0.5,0.25");
  cli.add_flag("jitter-us", "max OS wakeup jitter in microseconds", "1000");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  const stp::BridgeNetwork star = make_edge_star();
  bool pass = true;
  for (const std::string& token : split(cli.get("factors"), ',')) {
    const double keep = std::stod(token);
    harness::ChurnScenario scenario;
    scenario.title = "s1-s3 trunk degraded to " +
                     format_double(keep * 100, 0) + "%";
    scenario.msize = parse_size(cli.get("msize"));
    scenario.exec.wakeup_jitter_max =
        microseconds(cli.get_double("jitter-us", 1000.0));
    // Barrier-synchronized execution: completion is phase-additive, so
    // the schedule's weighted cost is what the wire actually pays.
    // (Pair-wise sync pipelines across phases; there, every schedule's
    // completion collapses toward the per-link busy-time bound and
    // phase structure stops mattering — see EXPERIMENTS.md E12.)
    scenario.lowering.sync = lowering::SyncMode::kBarrier;
    scenario.plan.add(
        faults::FaultEvent::link_degrade(milliseconds(1.0), 0, keep));
    const harness::ChurnReport report = harness::run_churn(star, scenario);
    std::cout << report.to_string();
    // One JSON row per factor (the bench/baselines/BENCH_churn.json
    // format).
    std::cout << "{\"bench\":\"churn\",\"factor\":" << keep
              << ",\"msize\":" << scenario.msize
              << ",\"healthy_mbps\":" << format_double(report.healthy_mbps, 1)
              << ",\"stale_mbps\":" << format_double(report.stale_mbps, 1)
              << ",\"revalidated_mbps\":"
              << format_double(report.revalidated_mbps, 1)
              << ",\"stale_cost\":" << report.stale_cost
              << ",\"revalidated_cost\":" << report.revalidated_cost
              << ",\"load_bound\":" << report.weighted_load
              << ",\"revalidated_over_stale\":"
              << format_double(report.revalidated_over_stale(), 3)
              << "}\n\n";

    // Sanity on every row: no schedule beats the weighted load bound.
    const double tolerance = 1e-9;
    for (const double cost : {report.stale_cost, report.revalidated_cost}) {
      if (cost < report.weighted_load - tolerance) {
        std::cout << "FAIL: cost " << format_double(cost, 3)
                  << " below the weighted load bound "
                  << format_double(report.weighted_load, 3) << "\n";
        pass = false;
      }
    }
    const bool throughput_kept =
        report.revalidated_mbps >= report.stale_mbps;
    const bool cost_kept =
        report.revalidated_cost <= report.stale_cost + tolerance;
    std::cout << (throughput_kept ? "PASS" : "FAIL")
              << ": revalidated throughput no worse than stale ("
              << format_double(report.revalidated_mbps, 1) << " vs "
              << format_double(report.stale_mbps, 1) << " Mbps)\n"
              << (cost_kept ? "PASS" : "FAIL")
              << ": weighted cost no worse than stale ("
              << format_double(report.revalidated_cost, 2) << " vs "
              << format_double(report.stale_cost, 2) << ", load bound "
              << format_double(report.weighted_load, 2) << ")\n\n";
    pass = pass && throughput_kept && cost_kept;
  }
  return pass ? 0 : 1;
}
