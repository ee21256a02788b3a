// aapc_tool — one-shot work on one topology, from the paper's automatic
// routine generator (§5: "takes the topology information as input and
// produces a customized MPI_Alltoall routine") to a traced run.
//
//   aapc_tool describe   <topo>            loads, bottleneck, peak
//   aapc_tool dot        <topo>            Graphviz rendering
//   aapc_tool schedule   <topo> [...]      §4.1-§5 walkthrough, verify
//   aapc_tool codegen    <topo> [...]      customized MPI_Alltoall in C
//   aapc_tool trace      <topo> [...]      one traced run: Gantt, links
//   aapc_tool simulate   <topo> [...]      LAM vs MPICH vs Ours sweep
//   aapc_tool validate   <topo> --schedule-json file
//                                          verify an external schedule
//
//   ./aapc_tool codegen cluster.topo > alltoall_cluster.c
//   ./aapc_tool codegen paper-b --sync barrier --summary
//   ./aapc_tool trace paper-c --algorithm lam --chrome-json lam.json
//
// <topo> is a .topo file path or one of the built-ins: paper-a,
// paper-b, paper-c, fig1. Each subcommand takes only its own flags.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>

#include "aapc/baselines/baselines.hpp"
#include "aapc/codegen/codegen.hpp"
#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/assign.hpp"
#include "aapc/core/global_schedule.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/stats.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"
#include "aapc/trace/trace.hpp"

namespace {

using namespace aapc;

// A Gantt row wider than this shows nothing more on a terminal, and
// ascii_gantt allocates one cell per column for every rank.
constexpr std::uint64_t kMaxGanttWidth = 1000;

topology::Topology load(const std::string& spec) {
  if (spec == "fig1") return topology::make_paper_topology(spec);
  if (starts_with(spec, "paper-")) {
    return topology::make_paper_topology(spec.substr(6));
  }
  return topology::load_topology_file(spec);
}

int usage() {
  std::cerr
      << "usage: aapc_tool "
         "<describe|dot|schedule|codegen|trace|simulate|validate>"
      << " <topology> [flags]\n"
      << "  topology: a .topo file or paper-a | paper-b | paper-c | fig1\n"
      << "  schedule: --json --max-phases N\n"
      << "  codegen:  --function-name N --sync pairwise|barrier|none\n"
      << "            --no-reduce --summary --output FILE\n"
      << "  trace:    --algorithm ours|ours-nosync|lam|mpich --msize 64K\n"
      << "            --width N --chrome-json FILE --csv FILE\n"
      << "  simulate: --msizes 8K,...   sweep sizes (default paper sweep)\n"
      << "  validate: --schedule-json F verify an externally-built "
         "schedule\n"
      << "  (aapc_tool <command> <topology> --help lists one command's "
         "flags)\n";
  return 2;
}

int run_describe(const topology::Topology& topo, const CliParser&) {
  std::cout << topology::describe_topology(topo, mbps_to_bytes_per_sec(100));
  return 0;
}

int run_dot(const topology::Topology& topo, const CliParser&) {
  std::cout << topology::to_dot(topo);
  return 0;
}

void schedule_flags(CliParser& cli) {
  cli.add_flag("json", "also print the schedule as JSON (last line)",
               "false");
  cli.add_flag("max-phases", "print at most this many phases", "40");
}

// The intermediate artifacts of the paper's algorithm: the root
// decomposition (§4.1), the extended-ring group spans (§4.2, Figure 3),
// the per-phase assignment (§4.3, Table 4) and the synchronization
// plan (§5). The exit status is the verifier's verdict.
int run_schedule(const topology::Topology& topo, const CliParser& cli) {
  const auto max_phases = static_cast<std::int32_t>(cli.get_u64(
      "max-phases", 40, std::numeric_limits<std::int32_t>::max()));
  std::cout << "== topology ==\n"
            << topology::describe_topology(topo, mbps_to_bytes_per_sec(100))
            << '\n';

  // core::decompose needs three machines; AAPC is trivial below that.
  if (topo.machine_count() >= 3) {
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
        spans.add_row({str_cat("t", i, "->t", j), std::to_string(start),
                       std::to_string(start + length - 1),
                       std::to_string(length)});
      }
    }
    std::cout << spans.render() << '\n';
  }

  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const core::VerifyReport report = core::verify_schedule(topo, schedule);
  std::cout << "== per-phase assignment (§4.3) ==\n";
  for (std::int32_t p = 0;
       p < std::min(schedule.phase_count(), max_phases); ++p) {
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
  std::cout << "verification: " << report.summary() << '\n'
            << "\n== schedule statistics ==\n"
            << core::compute_schedule_stats(topo, schedule).to_string();

  lowering::LoweringInfo info;
  lowering::lower_schedule(topo, schedule, 64_KiB, {}, &info);
  const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
  const sync::PlanAnalysis analysis =
      sync::analyze_plan(plan, schedule.message_count());
  std::cout << "\n== synchronization (§5) ==\n"
            << "dependence edges before reduction: "
            << info.sync_edges_before_reduction << '\n'
            << "network sync tokens after reduction: " << info.sync_messages
            << '\n'
            << "same-sender local waits: " << info.local_wait_dependencies
            << '\n'
            << "critical dependency chain: "
            << analysis.critical_path_messages << " messages (of "
            << schedule.message_count() << ")\n";
  if (cli.get_bool("json", false)) {
    std::cout << core::schedule_to_json(schedule, topo.machine_count())
              << '\n';
  }
  return report.ok ? 0 : 1;
}

void codegen_flags(CliParser& cli) {
  cli.add_flag("function-name", "emitted C function name", "AAPC_Alltoall");
  cli.add_flag("sync", "pairwise | barrier | none", "pairwise");
  cli.add_flag("no-reduce", "keep redundant synchronizations", "false");
  cli.add_flag("summary", "print statistics to stderr instead of code",
               "false");
  cli.add_flag("output", "write the C source to this file");
}

// The emitted C builds against any MPI implementation. The schedule is
// verified before anything is emitted.
int run_codegen(const topology::Topology& topo, const CliParser& cli) {
  codegen::CodegenOptions options;
  options.function_name = cli.get("function-name");
  const std::string sync = cli.get("sync");
  options.lowering.sync =
      sync == "pairwise" ? lowering::SyncMode::kPairwise
      : sync == "barrier" ? lowering::SyncMode::kBarrier
      : sync == "none"
          ? lowering::SyncMode::kNone
          : throw InvalidArgument("unknown --sync mode '" + sync + "'");
  options.lowering.reduce_redundant_syncs = !cli.get_bool("no-reduce", false);

  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const core::VerifyReport report = core::verify_schedule(topo, schedule);
  if (!report.ok) {
    std::cerr << "internal error: schedule failed verification:\n"
              << report.summary() << '\n';
    return 1;
  }

  if (cli.get_bool("summary", false)) {
    lowering::LoweringInfo info;
    lowering::lower_schedule(topo, schedule, 64_KiB, options.lowering, &info);
    std::cerr << topology::describe_topology(topo, mbps_to_bytes_per_sec(100))
              << "phases:                  " << schedule.phase_count()
              << "\ndata messages:           " << info.data_messages
              << "\nsync tokens (network):   " << info.sync_messages
              << "\nlocal wait dependencies: " << info.local_wait_dependencies
              << "\ndependence edges before reduction: "
              << info.sync_edges_before_reduction << '\n';
    return 0;
  }

  const std::string code =
      codegen::generate_alltoall_c(topo, schedule, options);
  if (cli.has("output")) {
    std::ofstream out(cli.get("output"));
    AAPC_REQUIRE(out.good(), "cannot write '" << cli.get("output") << "'");
    out << code;
    std::cerr << "wrote " << code.size() << " bytes to " << cli.get("output")
              << '\n';
  } else {
    std::cout << code;
  }
  return 0;
}

void trace_flags(CliParser& cli) {
  cli.add_flag("algorithm", "ours | ours-nosync | lam | mpich", "ours");
  cli.add_flag("msize", "message size", "64K");
  cli.add_flag("width", "gantt chart width (10..1000)", "100");
  cli.add_flag("chrome-json", "write Chrome trace-event JSON here");
  cli.add_flag("csv", "write per-message CSV here");
}

// Runs one AAPC algorithm traced and shows what the network did: an
// ASCII Gantt chart per rank, a per-link utilization report, and
// optional Chrome-trace / CSV dumps (load the JSON at chrome://tracing
// or https://ui.perfetto.dev).
int run_trace(const topology::Topology& topo, const CliParser& cli) {
  const Bytes msize = parse_size(cli.get("msize"));
  const auto width =
      static_cast<std::int32_t>(cli.get_u64("width", 100, kMaxGanttWidth));
  AAPC_REQUIRE(width >= trace::kMinGanttWidth,
               "--width " << width << " is below " << trace::kMinGanttWidth);

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
            << trace::max_overlapping_contending_transfers(topo, result.trace)
            << " (1 = perfectly serialized)\n\n"
            << trace::ascii_gantt(result.trace, topo.machine_count(), width)
            << "\nlink utilization\n"
            << trace::link_utilization_report(topo, result.network_stats,
                                              net.effective_bandwidth(),
                                              result.completion_time);

  if (cli.has("chrome-json")) {
    std::ofstream out(cli.get("chrome-json"));
    out << trace::to_chrome_json(result.trace);
    std::cout << "\nwrote Chrome trace to " << cli.get("chrome-json") << '\n';
  }
  if (cli.has("csv")) {
    std::ofstream out(cli.get("csv"));
    out << trace::to_csv(result.trace);
    std::cout << "wrote CSV to " << cli.get("csv") << '\n';
  }
  return 0;
}

void simulate_flags(CliParser& cli) {
  cli.add_flag("msizes", "comma-separated sizes", "8K,16K,32K,64K,128K,256K");
}

int run_simulate(const topology::Topology& topo, const CliParser& cli) {
  harness::ExperimentConfig config;
  config.msizes.clear();
  for (const std::string& token : split(cli.get("msizes"), ',')) {
    config.msizes.push_back(parse_size(token));
  }
  const auto suite = harness::standard_suite(topo);
  std::cout << harness::run_experiment(topo, "aapc_tool simulate", suite,
                                       config)
                   .to_string();
  return 0;
}

void validate_flags(CliParser& cli) {
  cli.add_flag("schedule-json", "schedule JSON file to validate");
}

int run_validate(const topology::Topology& topo, const CliParser& cli) {
  AAPC_REQUIRE(cli.has("schedule-json"),
               "validate requires --schedule-json <file>");
  std::ifstream in(cli.get("schedule-json"));
  AAPC_REQUIRE(in.good(), "cannot open '" << cli.get("schedule-json") << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const core::Schedule schedule =
      core::schedule_from_json(buffer.str(), topo.machine_count());
  const core::VerifyReport report = core::verify_schedule(topo, schedule);
  std::cout << report.summary() << '\n';
  return report.ok ? 0 : 1;
}

struct Subcommand {
  const char* name;
  void (*add_flags)(CliParser&);
  int (*run)(const topology::Topology&, const CliParser&);
};

void no_flags(CliParser&) {}

constexpr Subcommand kSubcommands[] = {
    {"describe", no_flags, run_describe},
    {"dot", no_flags, run_dot},
    {"schedule", schedule_flags, run_schedule},
    {"codegen", codegen_flags, run_codegen},
    {"trace", trace_flags, run_trace},
    {"simulate", simulate_flags, run_simulate},
    {"validate", validate_flags, run_validate},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const auto* const sub =
      std::find_if(std::begin(kSubcommands), std::end(kSubcommands),
                   [&](const Subcommand& s) { return command == s.name; });
  if (sub == std::end(kSubcommands)) return usage();

  CliParser cli("usage: aapc_tool " + command + " <topology> [flags]");
  sub->add_flags(cli);
  try {
    if (!cli.parse(argc - 2, argv + 2)) {
      std::cout << cli.help_text();
      return 0;
    }
    return sub->run(load(argv[2]), cli);
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
