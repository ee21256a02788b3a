// aapc_tool — the whole pipeline as one command-line multi-tool.
//
//   aapc_tool describe   <topo>            loads, bottleneck, peak
//   aapc_tool dot        <topo>            Graphviz rendering
//   aapc_tool schedule   <topo> [--json]   build + verify (+ JSON dump)
//   aapc_tool codegen    <topo> [...]      customized MPI_Alltoall in C
//   aapc_tool simulate   <topo> [...]      LAM vs MPICH vs Ours sweep
//   aapc_tool validate   <topo> --schedule-json file
//                                          verify an external schedule
//
// <topo> is a .topo file path or one of the built-ins: paper-a,
// paper-b, paper-c, fig1.
#include <fstream>
#include <iostream>
#include <sstream>

#include "aapc/codegen/codegen.hpp"
#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/stats.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace {

using namespace aapc;

topology::Topology load(const std::string& spec) {
  if (spec == "paper-a") return topology::make_paper_topology_a();
  if (spec == "paper-b") return topology::make_paper_topology_b();
  if (spec == "paper-c") return topology::make_paper_topology_c();
  if (spec == "fig1") return topology::make_paper_figure1();
  return topology::load_topology_file(spec);
}

int usage() {
  std::cerr
      << "usage: aapc_tool <describe|dot|schedule|codegen|simulate|validate>"
      << " <topology> [flags]\n"
      << "  topology: a .topo file or paper-a | paper-b | paper-c | fig1\n"
      << "  schedule: --json            also print the schedule as JSON\n"
      << "  codegen:  --function-name N --sync pairwise|barrier|none\n"
      << "  simulate: --msizes 8K,...   sweep sizes (default paper sweep)\n"
      << "  validate: --schedule-json F verify an externally-built "
         "schedule\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string topo_spec = argv[2];

  CliParser cli("aapc_tool " + command);
  cli.add_flag("json", "print the schedule as JSON", "false");
  cli.add_flag("function-name", "emitted C function name", "AAPC_Alltoall");
  cli.add_flag("sync", "pairwise | barrier | none", "pairwise");
  cli.add_flag("msizes", "comma-separated sizes",
               "8K,16K,32K,64K,128K,256K");
  cli.add_flag("schedule-json", "schedule JSON file to validate");

  try {
    if (!cli.parse(argc - 2, argv + 2)) {
      std::cout << cli.help_text();
      return 0;
    }
    const topology::Topology topo = load(topo_spec);
    if (command == "describe") {
      std::cout << topology::describe_topology(topo,
                                               mbps_to_bytes_per_sec(100));
      return 0;
    }
    if (command == "dot") {
      std::cout << topology::to_dot(topo);
      return 0;
    }
    if (command == "schedule") {
      const core::Schedule schedule = core::build_aapc_schedule(topo);
      const core::VerifyReport report = core::verify_schedule(topo, schedule);
      std::cout << core::compute_schedule_stats(topo, schedule).to_string()
                << "verification: " << report.summary() << '\n';
      if (cli.get_bool("json", false)) {
        std::cout << core::schedule_to_json(schedule, topo.machine_count())
                  << '\n';
      }
      return report.ok ? 0 : 1;
    }
    if (command == "codegen") {
      codegen::CodegenOptions options;
      options.function_name = cli.get("function-name");
      const std::string sync = cli.get("sync");
      options.lowering.sync =
          sync == "pairwise" ? lowering::SyncMode::kPairwise
          : sync == "barrier" ? lowering::SyncMode::kBarrier
          : sync == "none"
              ? lowering::SyncMode::kNone
              : throw InvalidArgument("unknown --sync mode '" + sync + "'");
      const core::Schedule schedule = core::build_aapc_schedule(topo);
      std::cout << codegen::generate_alltoall_c(topo, schedule, options);
      return 0;
    }
    if (command == "simulate") {
      harness::ExperimentConfig config;
      config.msizes.clear();
      for (const std::string& token : split(cli.get("msizes"), ',')) {
        config.msizes.push_back(parse_size(token));
      }
      const auto suite = harness::standard_suite(topo);
      std::cout << harness::run_experiment(topo, "aapc_tool simulate",
                                           suite, config)
                       .to_string();
      return 0;
    }
    if (command == "validate") {
      AAPC_REQUIRE(cli.has("schedule-json"),
                   "validate requires --schedule-json <file>");
      std::ifstream in(cli.get("schedule-json"));
      AAPC_REQUIRE(in.good(), "cannot open '" << cli.get("schedule-json")
                                              << "'");
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const core::Schedule schedule =
          core::schedule_from_json(buffer.str(), topo.machine_count());
      const core::VerifyReport report = core::verify_schedule(topo, schedule);
      std::cout << report.summary() << '\n';
      return report.ok ? 0 : 1;
    }
    return usage();
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
