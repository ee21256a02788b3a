// aapc_analyze: closed-loop fault localization over the flight
// recorder (docs/OBSERVABILITY.md §flight-recorder).
//
// Runs the scheduled alltoall of a two-switch bridged fabric (4+4
// machines, one trunk = bridge link 0) with the flight recorder wired
// into the executor, injects a fault, snapshots the rings — also when
// the run aborts or stalls; that is the point of a flight recorder —
// and asks flight::analyze() to name the culprit.
//
//   aapc_analyze --inject straggler|degrade|down|lossy|none
//       built-in fault of that class; verifies the top-ranked verdict
//       names the injected culprit and exits nonzero on a miss (the
//       ctest closed-loop smokes)
//   aapc_analyze --plan plan.json
//       scripted faults::FaultPlan (JSON schema in
//       faults/fault_plan.hpp; link ids are *bridge* links of the
//       fabric, translated through the elected spanning tree); prints
//       one "verdict:" line per finding — CI greps these for the
//       injected link and rank — and exits nonzero if any injected
//       culprit goes unnamed
//   aapc_analyze --load dump.flt
//       offline: analyze an existing dump taken on the same fabric
//
// Options: --msize 32K, --ring 4096, --severity 3.0, --json (print the
// full report as JSON), --out DIR (write the dump + report there).
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/analyze.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/sync/sync_plan.hpp"

using namespace aapc;

namespace {

/// The demo fabric: two bridges joined by one trunk (bridge link 0),
/// four machines on each side. Small enough that every fault class
/// localizes in milliseconds, big enough that the trunk matters.
struct Fabric {
  stp::BridgeNetwork net;
  stp::SpanningTree tree;
  std::int32_t trunk = 0;  // bridge link index of the trunk
};

Fabric make_fabric() {
  Fabric f;
  const stp::BridgeId s0 = f.net.add_bridge("s0", 0x8000'0000'0001ull);
  const stp::BridgeId s1 = f.net.add_bridge("s1", 0x8000'0000'0002ull);
  f.trunk = f.net.add_bridge_link(s0, s1);
  for (int i = 0; i < 8; ++i) {
    f.net.add_machine(str_cat("m", i), i < 4 ? s0 : s1);
  }
  f.tree = stp::compute_spanning_tree(f.net);
  return f;
}

/// Everything one recorded run produces. The schedule/plan pair is kept
/// because the analyzer needs the *same* sync plan the lowering used —
/// token tags are numbered by position in plan.edges.
struct RecordedRun {
  core::Schedule schedule;
  sync::SyncPlan plan;
  flight::FlightDump dump;
  std::string failure;  // exception text when the run threw
};

RecordedRun run_recorded(const Fabric& fabric, Bytes msize,
                         std::uint32_t ring_capacity,
                         mpisim::ExecutorParams exec, std::string label) {
  const topology::Topology& topo = fabric.tree.topology;
  RecordedRun run;
  run.schedule = core::build_aapc_schedule(topo);
  run.plan = sync::build_sync_plan(topo, run.schedule);

  lowering::LoweringOptions lopts;
  lopts.precomputed_plan = &run.plan;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, run.schedule, msize, lopts);

  flight::RecorderParams rparams;
  rparams.ring_capacity = ring_capacity;
  flight::Recorder recorder(topo.machine_count(), rparams);
  exec.flight = &recorder;
  try {
    mpisim::Executor(topo, simnet::NetworkParams{}, exec).run(set);
  } catch (const std::exception& error) {
    run.failure = error.what();  // the rings survived; dump them anyway
  }
  run.dump = flight::snapshot(recorder, std::move(label));
  return run;
}

void write_artifacts(const RecordedRun& run,
                     const flight::AnalysisReport& report,
                     const std::string& out_dir, const std::string& stem) {
  std::filesystem::create_directories(out_dir);
  const std::string dump_path = str_cat(out_dir, "/", stem, ".flt");
  flight::write_dump_file(run.dump, dump_path);
  const std::string report_path = str_cat(out_dir, "/", stem, ".json");
  std::ofstream out(report_path);
  out << report.to_json() << '\n';
  AAPC_REQUIRE(out.good(), "cannot write " << report_path);
  std::cout << "wrote " << dump_path << " and " << report_path << '\n';
}

void print_report(const RecordedRun& run,
                  const flight::AnalysisReport& report, bool json) {
  if (!run.failure.empty()) {
    std::cout << "run outcome: " << run.failure << "\n\n";
  }
  std::cout << report.summary();
  for (const flight::Verdict& v : report.verdicts) {
    std::cout << "verdict: " << flight::verdict_kind_name(v.kind) << ' '
              << v.detail << '\n';
  }
  if (json) std::cout << report.to_json() << '\n';
}

/// Did any verdict of a link-culprit kind name this topology link?
bool names_link(const std::vector<flight::Verdict>& verdicts,
                topology::LinkId link) {
  for (const flight::Verdict& v : verdicts) {
    if (v.kind != flight::VerdictKind::kStragglerRank && v.link == link) {
      return true;
    }
  }
  return false;
}

bool names_rank(const std::vector<flight::Verdict>& verdicts,
                topology::Rank rank) {
  for (const flight::Verdict& v : verdicts) {
    if (v.kind == flight::VerdictKind::kStragglerRank && v.rank == rank) {
      return true;
    }
  }
  return false;
}

int run_inject(const std::string& kind, Bytes msize,
               std::uint32_t ring_capacity, double severity, bool json,
               const std::string& out_dir) {
  const Fabric fabric = make_fabric();
  const topology::Topology& topo = fabric.tree.topology;
  const topology::LinkId trunk_link =
      fabric.tree.link_of_bridge_link[static_cast<std::size_t>(fabric.trunk)];

  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  faults::FaultPlan plan;
  const topology::Rank straggler = 2;
  if (kind == "straggler") {
    plan.add(faults::FaultEvent::node_slowdown(0, straggler,
                                               severity > 1 ? severity : 3.0));
  } else if (kind == "degrade") {
    plan.add(faults::FaultEvent::link_degrade(0, fabric.trunk, 0.4));
  } else if (kind == "down") {
    plan.add(faults::FaultEvent::link_down(0, fabric.trunk));
    exec.transfer_timeout = milliseconds(40.0);
    exec.transfer_max_retries = 2;
  } else if (kind == "lossy") {
    // Heavy Bernoulli loss on both trunk directions: every crossing
    // transfer pays retransmissions, so even the trunk's *fastest*
    // transfer stays slow (what the analyzer keys on).
    exec.packet.emplace().faults.edge_loss = {{2 * trunk_link, 0.15},
                                              {2 * trunk_link + 1, 0.15}};
  } else {
    AAPC_REQUIRE(kind == "none", "unknown --inject class " << kind);
  }
  faults::compile(plan, net, topo.link_count(), fabric.tree.link_of_bridge_link)
      .apply(exec);

  const RecordedRun run = run_recorded(fabric, msize, ring_capacity, exec,
                                       str_cat("aapc_analyze --inject ", kind));
  const flight::AnalysisReport report = flight::analyze(
      run.dump, topo, &run.schedule, &run.plan, &fabric.tree);
  print_report(run, report, json);
  if (!out_dir.empty()) {
    write_artifacts(run, report, out_dir, str_cat("inject_", kind));
  }

  // Closed loop: the top-ranked verdict must name the injected culprit.
  std::string miss;
  if (kind == "none") {
    if (!report.verdicts.empty()) miss = "expected a healthy (empty) verdict";
  } else if (report.verdicts.empty()) {
    miss = "no verdicts";
  } else {
    const flight::Verdict& top = report.verdicts.front();
    if (kind == "straggler" &&
        (top.kind != flight::VerdictKind::kStragglerRank ||
         top.rank != straggler)) {
      miss = str_cat("expected straggler rank ", straggler);
    } else if (kind == "degrade" &&
               (top.kind != flight::VerdictKind::kDegradedLink ||
                top.link != trunk_link)) {
      miss = str_cat("expected degraded link ", trunk_link);
    } else if (kind == "down" &&
               (top.kind != flight::VerdictKind::kDownLink ||
                top.link != trunk_link)) {
      miss = str_cat("expected down link ", trunk_link);
    } else if (kind == "lossy" &&
               (top.kind != flight::VerdictKind::kLossyTransport ||
                top.link != trunk_link)) {
      miss = str_cat("expected lossy transport on link ", trunk_link);
    }
  }
  if (!miss.empty()) {
    std::cout << "FAIL: " << miss << '\n';
    return 1;
  }
  std::cout << "PASS: analyzer localized the injected fault (" << kind
            << ")\n";
  return 0;
}

int run_plan(const std::string& path, Bytes msize,
             std::uint32_t ring_capacity, bool json,
             const std::string& out_dir) {
  std::ifstream in(path);
  AAPC_REQUIRE(in.good(), "cannot open fault plan " << path);
  std::ostringstream text;
  text << in.rdbuf();
  const faults::FaultPlan plan = faults::fault_plan_from_json(text.str());

  const Fabric fabric = make_fabric();
  const topology::Topology& topo = fabric.tree.topology;
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  // Watchdog on: a plan that downs a link without recovery should end
  // in TransferAborted (and a dump), not an endless stall.
  exec.transfer_timeout = milliseconds(40.0);
  exec.transfer_max_retries = 2;
  faults::compile(plan, net, topo.link_count(), fabric.tree.link_of_bridge_link)
      .apply(exec);

  const RecordedRun run = run_recorded(fabric, msize, ring_capacity, exec,
                                       str_cat("aapc_analyze --plan ", path));
  const flight::AnalysisReport report = flight::analyze(
      run.dump, topo, &run.schedule, &run.plan, &fabric.tree);
  print_report(run, report, json);
  if (!out_dir.empty()) write_artifacts(run, report, out_dir, "plan");

  // Every culprit the plan injects must be named by some verdict.
  const faults::FaultSummary injected =
      faults::summarize(plan, fabric.net.bridge_link_count());
  int misses = 0;
  auto check = [&](bool named, const std::string& what) {
    std::cout << (named ? "  localized: " : "  MISSED: ") << what << '\n';
    if (!named) ++misses;
  };
  std::cout << "closed-loop check against the injected plan:\n";
  for (const std::int32_t bridge_link : injected.degraded_links) {
    const topology::LinkId link =
        fabric.tree.link_of_bridge_link[static_cast<std::size_t>(bridge_link)];
    check(link >= 0 && names_link(report.verdicts, link),
          str_cat("degraded bridge link ", bridge_link));
  }
  for (const std::int32_t bridge_link : injected.down_links) {
    const topology::LinkId link =
        fabric.tree.link_of_bridge_link[static_cast<std::size_t>(bridge_link)];
    check(link >= 0 && names_link(report.verdicts, link),
          str_cat("down bridge link ", bridge_link));
  }
  for (const topology::Rank rank : injected.straggler_ranks) {
    check(names_rank(report.verdicts, rank), str_cat("straggler rank ", rank));
  }
  if (misses > 0) {
    std::cout << "FAIL: " << misses << " injected culprit(s) not localized\n";
    return 1;
  }
  std::cout << "PASS: every injected culprit localized\n";
  return 0;
}

int run_load(const std::string& path, bool json) {
  const flight::FlightDump dump = flight::read_dump_file(path);
  const Fabric fabric = make_fabric();
  const topology::Topology& topo = fabric.tree.topology;
  AAPC_REQUIRE(dump.meta.rank_count == topo.machine_count(),
               "dump has " << dump.meta.rank_count
                           << " ranks; aapc_analyze --load assumes the "
                              "built-in 4+4 fabric");
  // Rebuild the schedule/plan the fabric's runs use, so transfers map
  // to scheduled messages and the dependence graph is available offline
  // too.
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
  const flight::AnalysisReport report =
      flight::analyze(dump, topo, &schedule, &plan, &fabric.tree);
  std::cout << "dump \"" << dump.meta.label << "\": "
            << dump.meta.rank_count << " ranks, " << report.events_analyzed
            << " events (" << report.events_dropped << " overwritten)\n";
  std::cout << report.summary();
  for (const flight::Verdict& v : report.verdicts) {
    std::cout << "verdict: " << flight::verdict_kind_name(v.kind) << ' '
              << v.detail << '\n';
  }
  if (json) std::cout << report.to_json() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Closed-loop fault localization: runs the scheduled alltoall of a "
      "two-switch fabric with the flight recorder on, injects a fault, "
      "and verifies flight::analyze() names the culprit.");
  cli.add_flag("inject",
               "fault class to inject and verify: straggler, degrade, "
               "down, lossy, or none");
  cli.add_flag("plan",
               "faults::FaultPlan JSON file (bridge-link ids); prints "
               "verdicts and checks every injected culprit is localized");
  cli.add_flag("load", "analyze an existing dump file offline");
  cli.add_flag("msize", "per-pair message size (default 32K)");
  cli.add_flag("ring", "recorder ring capacity per rank (default 4096)");
  cli.add_flag("severity", "straggler CPU slowdown factor (default 3.0)");
  cli.add_flag("json", "print the full analysis report as JSON");
  cli.add_flag("out", "directory to write the dump and report into");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const Bytes msize = parse_size(cli.get_or("msize", "32K"));
    const auto ring_capacity = static_cast<std::uint32_t>(
        cli.get_u64("ring", 4096, flight::kMaxRingCapacity));
    const double severity = cli.get_double("severity", 3.0);
    const bool json = cli.get_bool("json", false);
    const std::string out_dir = cli.get_or("out", "");
    if (cli.has("load")) return run_load(cli.get("load"), json);
    if (cli.has("plan")) {
      return run_plan(cli.get("plan"), msize, ring_capacity, json, out_dir);
    }
    return run_inject(cli.get_or("inject", "none"), msize, ring_capacity,
                      severity, json, out_dir);
  } catch (const std::exception& error) {
    std::cerr << "aapc_analyze: " << error.what() << '\n';
    return 2;
  }
}
