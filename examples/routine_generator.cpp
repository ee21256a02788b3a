// The paper's tool (§5): an automatic routine generator that "takes the
// topology information as input and produces a customized MPI_Alltoall
// routine".
//
//   ./routine_generator cluster.topo > alltoall_cluster.c
//   ./routine_generator --paper b --function-name Alltoall_b
//   ./routine_generator cluster.topo --sync barrier --summary
//
// The emitted C builds against any MPI implementation; the --summary
// flag prints schedule/synchronization statistics to stderr instead of
// code to stdout.
#include <fstream>
#include <iostream>

#include "aapc/codegen/codegen.hpp"
#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli(
      "usage: routine_generator [<topology-file>] [flags]\n"
      "Generates a topology-customized MPI_Alltoall in C (to stdout).");
  cli.add_flag("paper", "use a built-in paper topology: a, b, c, or fig1");
  cli.add_flag("function-name", "name of the emitted function",
               "AAPC_Alltoall");
  cli.add_flag("sync", "pairwise | barrier | none", "pairwise");
  cli.add_flag("no-reduce", "keep redundant synchronizations", "false");
  cli.add_flag("summary", "print statistics instead of code", "false");
  cli.add_flag("output", "write the C source to this file");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  try {
    codegen::CodegenOptions options;
    options.function_name = cli.get("function-name");
    const std::string sync = cli.get("sync");
    if (sync == "pairwise") {
      options.lowering.sync = lowering::SyncMode::kPairwise;
    } else if (sync == "barrier") {
      options.lowering.sync = lowering::SyncMode::kBarrier;
    } else if (sync == "none") {
      options.lowering.sync = lowering::SyncMode::kNone;
    } else {
      throw InvalidArgument("unknown --sync mode '" + sync + "'");
    }
    options.lowering.reduce_redundant_syncs = !cli.get_bool("no-reduce", false);

    topology::Topology topo;
    if (cli.has("paper")) {
      const std::string which = cli.get("paper");
      if (which == "a") {
        topo = topology::make_paper_topology_a();
      } else if (which == "b") {
        topo = topology::make_paper_topology_b();
      } else if (which == "c") {
        topo = topology::make_paper_topology_c();
      } else if (which == "fig1") {
        topo = topology::make_paper_figure1();
      } else {
        throw InvalidArgument("unknown paper topology '" + which + "'");
      }
    } else if (!cli.positional().empty()) {
      topo = topology::load_topology_file(cli.positional().front());
    } else {
      std::cerr << cli.help_text();
      return 2;
    }

    const core::Schedule schedule = core::build_aapc_schedule(topo);
    const core::VerifyReport report = core::verify_schedule(topo, schedule);
    if (!report.ok) {
      std::cerr << "internal error: schedule failed verification:\n"
                << report.summary() << '\n';
      return 1;
    }

    if (cli.get_bool("summary", false)) {
      lowering::LoweringInfo info;
      lowering::lower_schedule(topo, schedule, 64_KiB, options.lowering,
                               &info);
      std::cerr << topology::describe_topology(topo,
                                               mbps_to_bytes_per_sec(100))
                << "phases:                  " << schedule.phase_count()
                << "\ndata messages:           " << info.data_messages
                << "\nsync tokens (network):   " << info.sync_messages
                << "\nlocal wait dependencies: "
                << info.local_wait_dependencies
                << "\ndependence edges before reduction: "
                << info.sync_edges_before_reduction << '\n';
      return 0;
    }

    const std::string code = codegen::generate_alltoall_c(topo, schedule,
                                                          options);
    if (cli.has("output")) {
      std::ofstream out(cli.get("output"));
      AAPC_REQUIRE(out.good(), "cannot write '" << cli.get("output") << "'");
      out << code;
      std::cerr << "wrote " << code.size() << " bytes to "
                << cli.get("output") << '\n';
    } else {
      std::cout << code;
    }
    return 0;
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
