// E-faults — resilience on topology (b): 32 machines over a 4-switch
// star (Figure 7's cluster). Three experiments:
//
//  1. Severity sweep (no redundant links): degrade the s0-s1 trunk to
//     75/50/25% mid-run and measure how much the stale schedule's
//     completion inflates — the cost of keeping the healthy tree's
//     contention-free schedule on a degraded bottleneck.
//  2. Repair with a redundant trunk: the LAN carries a second s0-s1
//     trunk at equal STP cost that the healthy election blocks (link-id
//     tie-break). After a 50% degrade of the primary, the fault-aware
//     re-election prefers the backup (cost 19 vs ceil(19/0.5) = 38),
//     and the repaired remainder runs at full nominal capacity. PASS
//     iff recovered throughput ratio >= the degraded peak ratio — i.e.
//     repair beats the best the stale tree could ever do.
//  3. Hard failure: the primary trunk goes DOWN. The stale schedule
//     aborts via the transfer watchdog (named-rank diagnostic, not a
//     hang); repair fails over to the backup trunk.
#include <iostream>
#include <string>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/harness/resilience.hpp"
#include "aapc/stp/stp.hpp"

namespace {

using namespace aapc;

/// Topology (b) as a bridged LAN: hub s0, leaves s1..s3, 8 machines
/// per switch. Bridge link 0 is the s0-s1 trunk under test; when
/// `with_backup`, link 3 is a parallel s0-s1 trunk at the same cost
/// (blocked by the healthy election's link-id tie-break).
stp::BridgeNetwork make_star(bool with_backup) {
  stp::BridgeNetwork net;
  const stp::BridgeId s0 = net.add_bridge("s0", 0x8000'0000'0001ull);
  const stp::BridgeId s1 = net.add_bridge("s1", 0x8000'0000'0002ull);
  const stp::BridgeId s2 = net.add_bridge("s2", 0x8000'0000'0003ull);
  const stp::BridgeId s3 = net.add_bridge("s3", 0x8000'0000'0004ull);
  net.add_bridge_link(s0, s1, 19);  // bridge link 0: trunk under test
  net.add_bridge_link(s0, s2, 19);  // bridge link 1
  net.add_bridge_link(s0, s3, 19);  // bridge link 2
  if (with_backup) net.add_bridge_link(s0, s1, 19);  // bridge link 3
  const stp::BridgeId switches[] = {s0, s1, s2, s3};
  for (int s = 0; s < 4; ++s) {
    for (int m = 0; m < 8; ++m) {
      net.add_machine("n" + std::to_string(8 * s + m), switches[s]);
    }
  }
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Resilience benchmark on topology (b): fault severity sweep, "
      "schedule repair over a redundant trunk, and watchdog abort on a "
      "hard trunk failure.");
  cli.add_flag("msize", "message size per rank pair", "64K");
  cli.add_flag("onset-ms", "fault onset time (simulated ms)", "400");
  cli.add_flag("jitter-us", "max OS wakeup jitter in microseconds", "1000");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  harness::ResilienceScenario base;
  SimTime onset = 0;
  try {
    base.msize = cli.get_u64("msize", 64 * 1024);
    base.exec.wakeup_jitter_max =
        microseconds(cli.get_double("jitter-us", 1000.0));
    onset = milliseconds(cli.get_double("onset-ms", 400.0));
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  // ---- 1. severity sweep, no redundancy ----
  std::cout << "== severity sweep: s0-s1 trunk degraded at "
            << format_double(to_milliseconds(onset), 1)
            << "ms, no redundant links ==\n";
  const stp::BridgeNetwork star = make_star(/*with_backup=*/false);
  double healthy_ms = 0;
  for (const double keep : {1.0, 0.75, 0.5, 0.25}) {
    harness::ResilienceScenario scenario = base;
    scenario.title = "degrade to " + format_double(keep * 100, 0) + "%";
    if (keep < 1.0) {
      scenario.plan.add(faults::FaultEvent::link_degrade(onset, 0, keep));
    }
    const harness::ResilienceReport r = harness::run_resilience(star, scenario);
    if (keep == 1.0) healthy_ms = to_milliseconds(r.healthy_completion);
    const double stale_ms = to_milliseconds(
        keep == 1.0 ? r.healthy_completion : r.stale_completion);
    std::cout << "  keep=" << format_double(keep * 100, 0) << "%  stale "
              << format_double(stale_ms, 2) << "ms  inflation x"
              << format_double(healthy_ms > 0 ? stale_ms / healthy_ms : 0, 2)
              << "  degraded peak " << format_double(r.degraded_peak_mbps, 1)
              << " Mbps\n";
  }

  // ---- 2. repair over the redundant trunk ----
  std::cout << "\n== repair: 50% degrade of the primary s0-s1 trunk, "
               "equal-cost backup trunk available ==\n";
  const stp::BridgeNetwork redundant = make_star(/*with_backup=*/true);
  harness::ResilienceScenario repair_scenario = base;
  repair_scenario.title = "repair after 50% trunk degrade";
  repair_scenario.plan.add(faults::FaultEvent::link_degrade(onset, 0, 0.5));
  const harness::ResilienceReport repaired =
      harness::run_resilience(redundant, repair_scenario);
  std::cout << repaired.to_string();
  const bool pass =
      repaired.recovered_ratio() >= repaired.degraded_peak_ratio();
  std::cout << (pass ? "PASS" : "FAIL")
            << ": recovered_ratio >= degraded_peak_ratio ("
            << format_double(repaired.recovered_ratio(), 3) << " vs "
            << format_double(repaired.degraded_peak_ratio(), 3) << ")\n";

  // ---- 3. hard failure + watchdog ----
  std::cout << "\n== hard failure: primary s0-s1 trunk DOWN, watchdog "
               "abort on the stale schedule, fail-over repair ==\n";
  harness::ResilienceScenario down_scenario = base;
  down_scenario.title = "repair after trunk failure";
  down_scenario.plan.add(faults::FaultEvent::link_down(onset, 0));
  down_scenario.exec.transfer_timeout = milliseconds(15.0);
  down_scenario.exec.transfer_max_retries = 2;
  const harness::ResilienceReport failed =
      harness::run_resilience(redundant, down_scenario);
  std::cout << failed.to_string();
  return pass ? 0 : 1;
}
