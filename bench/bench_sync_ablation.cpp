// E8 — synchronization ablation (§5-§6 discussion).
//
// The paper attributes the generated routine's 32-64 KB advantage on
// topology (a) to pair-wise synchronization removing end-node
// contention, and argues barriers would be too expensive while skipping
// redundant-synchronization elimination would waste token traffic. This
// bench quantifies all four variants of the generated routine:
//   pairwise            — the paper's implementation,
//   pairwise-noreduce   — keep redundant synchronizations,
//   barrier             — a barrier between phases,
//   nosync              — phase order by posting only.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/topology/generators.hpp"

using namespace aapc;

namespace {

harness::NamedAlgorithm ours_variant(const topology::Topology& topo,
                                     const std::string& name,
                                     lowering::SyncMode sync, bool reduce) {
  auto schedule = std::make_shared<core::Schedule>(
      core::build_aapc_schedule(topo));
  lowering::LoweringOptions options;
  options.sync = sync;
  options.reduce_redundant_syncs = reduce;
  return harness::NamedAlgorithm{
      name, [&topo, schedule, options](Bytes msize) {
        return lowering::lower_schedule(topo, *schedule, msize, options);
      }};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Synchronization-mode ablation of the generated routine.");
  cli.add_flag("topology", "a, b, c, or fig1", "a");
  cli.add_flag("msizes", "comma-separated message sizes",
               "8K,32K,64K,256K");
  std::string which;
  topology::Topology topo;
  harness::ExperimentConfig config;
  config.msizes.clear();
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    which = cli.get("topology");
    topo = topology::make_paper_topology(which);
    for (const std::string& token : split(cli.get("msizes"), ',')) {
      config.msizes.push_back(parse_size(token));
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  std::vector<harness::NamedAlgorithm> algorithms;
  algorithms.push_back(
      ours_variant(topo, "pairwise", lowering::SyncMode::kPairwise, true));
  algorithms.push_back(ours_variant(topo, "pairwise-noreduce",
                                    lowering::SyncMode::kPairwise, false));
  algorithms.push_back(
      ours_variant(topo, "barrier", lowering::SyncMode::kBarrier, true));
  algorithms.push_back(
      ours_variant(topo, "nosync", lowering::SyncMode::kNone, true));

  const harness::ExperimentReport report = harness::run_experiment(
      topo, "sync ablation on topology (" + which + ")", algorithms, config);
  std::cout << report.to_string();

  // Token economics: how much the §5 transitive reduction saves.
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  lowering::LoweringInfo reduced;
  lowering::lower_schedule(topo, schedule, 64_KiB, {}, &reduced);
  lowering::LoweringOptions no_reduce;
  no_reduce.reduce_redundant_syncs = false;
  lowering::LoweringInfo full;
  lowering::lower_schedule(topo, schedule, 64_KiB, no_reduce, &full);
  TextTable table;
  table.set_header({"variant", "sync tokens", "local waits",
                    "dependence edges"});
  table.add_row({"full dependence graph", std::to_string(full.sync_messages),
                 std::to_string(full.local_wait_dependencies),
                 std::to_string(full.sync_edges_before_reduction)});
  table.add_row({"after reduction", std::to_string(reduced.sync_messages),
                 std::to_string(reduced.local_wait_dependencies),
                 std::to_string(reduced.sync_edges_before_reduction)});
  std::cout << "\nredundant-synchronization elimination (§5)\n"
            << table.render();
  return 0;
}
