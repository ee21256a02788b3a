// Trace viewer: runs one AAPC algorithm with tracing enabled and shows
// what the network actually did — an ASCII Gantt chart per rank, a
// per-link utilization report, and optional Chrome-trace / CSV dumps
// (load the JSON at chrome://tracing or https://ui.perfetto.dev).
//
//   ./trace_viewer --paper c --algorithm ours --msize 64K
//   ./trace_viewer --algorithm lam --chrome-json /tmp/lam.json
#include <fstream>
#include <iostream>

#include "aapc/baselines/baselines.hpp"
#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/trace/trace.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli("usage: trace_viewer [<topology-file>] [flags]");
  cli.add_flag("paper", "built-in topology: a, b, c, or fig1", "fig1");
  cli.add_flag("algorithm", "ours | ours-nosync | lam | mpich", "ours");
  cli.add_flag("msize", "message size", "64K");
  cli.add_flag("width", "gantt chart width", "100");
  cli.add_flag("chrome-json", "write Chrome trace-event JSON here");
  cli.add_flag("csv", "write per-message CSV here");
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
    const Bytes msize = parse_size(cli.get("msize"));

    mpisim::ProgramSet set;
    const std::string algorithm = cli.get("algorithm");
    if (algorithm == "lam") {
      set = baselines::lam_alltoall(topo.machine_count(), msize);
    } else if (algorithm == "mpich") {
      set = baselines::mpich_alltoall(topo.machine_count(), msize);
    } else {
      const core::Schedule schedule = core::build_aapc_schedule(topo);
      lowering::LoweringOptions options;
      if (algorithm == "ours-nosync") {
        options.sync = lowering::SyncMode::kNone;
      } else {
        AAPC_REQUIRE(algorithm == "ours",
                     "unknown algorithm '" << algorithm << "'");
      }
      set = lowering::lower_schedule(topo, schedule, msize, options);
    }

    simnet::NetworkParams net;
    mpisim::ExecutorParams exec;
    exec.record_trace = true;
    mpisim::Executor executor(topo, net, exec);
    const mpisim::ExecutionResult result = executor.run(set);

    std::cout << "algorithm " << set.name << " on " << topo.machine_count()
              << " machines, msize " << format_size(msize) << "B\n"
              << "completion: "
              << format_double(to_milliseconds(result.completion_time), 2)
              << " ms, " << result.message_count << " messages, peak "
              << result.network_stats.max_concurrent_flows
              << " concurrent flows\n"
              << "max overlapping contending transfers: "
              << trace::max_overlapping_contending_transfers(topo,
                                                             result.trace)
              << " (1 = perfectly serialized)\n\n";

    trace::GanttOptions gantt;
    gantt.width = static_cast<std::int32_t>(cli.get_u64("width", 100));
    std::cout << trace::ascii_gantt(result.trace, topo.machine_count(),
                                    gantt)
              << "\nlink utilization\n"
              << trace::link_utilization_report(
                     topo, result.network_stats, net.effective_bandwidth(),
                     result.completion_time);

    if (cli.has("chrome-json")) {
      std::ofstream out(cli.get("chrome-json"));
      out << trace::to_chrome_json(result.trace);
      std::cout << "\nwrote Chrome trace to " << cli.get("chrome-json")
                << '\n';
    }
    if (cli.has("csv")) {
      std::ofstream out(cli.get("csv"));
      out << trace::to_csv(result.trace);
      std::cout << "wrote CSV to " << cli.get("csv") << '\n';
    }
    return 0;
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
