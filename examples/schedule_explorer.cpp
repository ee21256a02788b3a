// Schedule explorer: prints the intermediate artifacts of the paper's
// algorithm for any topology — the root decomposition (§4.1), the
// extended-ring group spans (§4.2, Figure 3), the full per-phase
// assignment (§4.3, Table 4), and the synchronization plan (§5).
//
// With no arguments it walks through the paper's Figure-1 worked
// example; pass a .topo file or --paper a|b|c to explore others.
#include <iostream>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/assign.hpp"
#include "aapc/core/global_schedule.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/stats.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli(
      "usage: schedule_explorer [<topology-file>] [--paper a|b|c|fig1]");
  cli.add_flag("paper", "use a built-in paper topology", "fig1");
  cli.add_flag("max-phases", "print at most this many phases", "40");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  try {
    topology::Topology topo;
    if (!cli.positional().empty()) {
      topo = topology::load_topology_file(cli.positional().front());
    } else {
      const std::string which = cli.get("paper");
      topo = which == "a"      ? topology::make_paper_topology_a()
             : which == "b"    ? topology::make_paper_topology_b()
             : which == "c"    ? topology::make_paper_topology_c()
             : which == "fig1" ? topology::make_paper_figure1()
                               : throw InvalidArgument(
                                     "unknown paper topology '" + which + "'");
    }

    std::cout << "== topology ==\n"
              << topology::describe_topology(topo,
                                             mbps_to_bytes_per_sec(100))
              << '\n';

    // §4.1: root identification and subtree decomposition.
    const core::Decomposition dec = core::decompose(topo);
    std::cout << "== decomposition (§4.1) ==\nroot: " << topo.name(dec.root)
              << '\n';
    for (std::int32_t i = 0; i < dec.subtree_count(); ++i) {
      std::cout << "t" << i << " (" << dec.subtree_size(i) << " machines):";
      for (const topology::Rank r : dec.subtrees[i]) {
        std::cout << ' ' << topo.name(topo.machine_node(r));
      }
      std::cout << '\n';
    }

    // §4.2: extended-ring group spans (Figure 3).
    std::vector<std::int32_t> sizes;
    for (std::int32_t i = 0; i < dec.subtree_count(); ++i) {
      sizes.push_back(dec.subtree_size(i));
    }
    const core::GlobalSchedule global(sizes);
    std::cout << "\n== global message scheduling (§4.2) ==\ntotal phases: "
              << global.total_phases() << '\n';
    TextTable spans;
    spans.set_header({"group", "first phase", "last phase", "messages"});
    for (std::int32_t i = 0; i < dec.subtree_count(); ++i) {
      for (std::int32_t j = 0; j < dec.subtree_count(); ++j) {
        if (i == j) continue;
        const std::int64_t start = global.group_start(i, j);
        const std::int64_t length = global.group_length(i, j);
        spans.add_row({"t" + std::to_string(i) + "->t" + std::to_string(j),
                       std::to_string(start),
                       std::to_string(start + length - 1),
                       std::to_string(length)});
      }
    }
    std::cout << spans.render();

    // §4.3: the assignment (Table 4 for the fig1 default).
    const core::Schedule schedule = core::build_aapc_schedule(topo);
    const core::VerifyReport report = core::verify_schedule(topo, schedule);
    std::cout << "\n== per-phase assignment (§4.3) ==\n";
    const auto max_phases = static_cast<std::int32_t>(
        cli.get_u64("max-phases", 40));
    std::int32_t printed = 0;
    for (std::int32_t p = 0; p < schedule.phase_count() && printed < max_phases;
         ++p, ++printed) {
      std::cout << "phase " << p << ":";
      for (const core::Message& m : schedule.phase(p)) {
        std::cout << ' ' << topo.name(topo.machine_node(m.src)) << "->"
                  << topo.name(topo.machine_node(m.dst));
      }
      std::cout << '\n';
    }
    if (schedule.phase_count() > max_phases) {
      std::cout << "... (" << schedule.phase_count() - max_phases
                << " more phases; use --max-phases)\n";
    }
    std::cout << "verification: " << report.summary() << '\n';

    // Schedule shape statistics.
    std::cout << "\n== schedule statistics ==\n"
              << core::compute_schedule_stats(topo, schedule).to_string();

    // §5: synchronization plan.
    lowering::LoweringInfo info;
    lowering::lower_schedule(topo, schedule, 64_KiB, {}, &info);
    const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
    const sync::PlanAnalysis analysis =
        sync::analyze_plan(plan, schedule.message_count());
    std::cout << "\n== synchronization (§5) ==\n"
              << "dependence edges before reduction: "
              << info.sync_edges_before_reduction << '\n'
              << "network sync tokens after reduction: "
              << info.sync_messages << '\n'
              << "same-sender local waits: " << info.local_wait_dependencies
              << '\n'
              << "critical dependency chain: "
              << analysis.critical_path_messages << " messages (of "
              << schedule.message_count() << ")\n";
    return 0;
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
