// Phase-count ablation: what the optimal |M0|*(|M|-|M0|) phase count
// buys. Compares the generated routine against a naive contention-free
// scheduler that serializes the inter-subtree groups (one group after
// another, ring-ordered but without the §4.2 overlap), which is also
// contention-free but uses far more phases — isolating the benefit of
// the extended-ring overlap from the benefit of contention freedom.
#include <algorithm>
#include <iostream>
#include <memory>

#include "aapc/common/error.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/patterns.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/topology/generators.hpp"

using namespace aapc;

namespace {

/// Naive contention-free scheduling: groups ti->tj run one after
/// another (no overlap between groups); locals ride along inside their
/// subtree's sending group. Contention-free but with
/// sum_{i!=j} |Mi||Mj| + max locals phases instead of |M0|(|M|-|M0|).
core::Schedule naive_group_sequential(const topology::Topology& topo) {
  const core::Decomposition dec = core::decompose(topo);
  const std::int32_t k = dec.subtree_count();
  core::ScheduleBuilder builder;
  std::int64_t phase = 0;
  for (std::int32_t i = 0; i < k; ++i) {
    for (std::int32_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const auto pattern = core::broadcast_pattern(dec.subtree_size(i),
                                                   dec.subtree_size(j));
      for (std::size_t q = 0; q < pattern.size(); ++q) {
        builder.add(phase + static_cast<std::int64_t>(q),
                    dec.subtrees[i][pattern[q].sender],
                    dec.subtrees[j][pattern[q].receiver]);
      }
      phase += static_cast<std::int64_t>(pattern.size());
    }
  }
  // Locals: one dedicated block of phases per subtree, all subtrees in
  // parallel (locals of different subtrees never contend).
  std::int64_t local_block = 0;
  for (std::int32_t i = 0; i < k; ++i) {
    const std::int32_t mi = dec.subtree_size(i);
    std::int64_t offset = 0;
    for (std::int32_t a = 0; a < mi; ++a) {
      for (std::int32_t b = 0; b < mi; ++b) {
        if (a == b) continue;
        builder.add(phase + offset, dec.subtrees[i][a], dec.subtrees[i][b]);
        ++offset;
      }
    }
    local_block = std::max(local_block, offset);
  }
  return std::move(builder).build(phase + local_block);
}

}  // namespace

int main() {
  harness::ExperimentConfig config;
  config.msizes = {64_KiB, 256_KiB};

  TextTable phases;
  phases.set_header({"topology", "optimal phases (=load)", "naive phases"});

  for (const auto& [name, topo] :
       {std::pair{std::string("paper (b)"),
                  topology::make_paper_topology_b()},
        std::pair{std::string("paper (c)"),
                  topology::make_paper_topology_c()},
        std::pair{std::string("star 6,6,6"), topology::make_star({6, 6, 6})}}) {
    auto optimal = std::make_shared<core::Schedule>(
        core::build_aapc_schedule(topo));
    auto naive = std::make_shared<core::Schedule>(
        naive_group_sequential(topo));
    core::VerifyOptions lax;
    lax.require_optimal_phase_count = false;
    const core::VerifyReport naive_report =
        core::verify_schedule(topo, *naive, lax);
    AAPC_CHECK_MSG(naive_report.ok, naive_report.summary());
    phases.add_row({name, std::to_string(optimal->phase_count()),
                    std::to_string(naive->phase_count())});

    std::vector<harness::NamedAlgorithm> algorithms;
    algorithms.push_back(harness::NamedAlgorithm{
        "optimal-phases", [&topo, optimal](Bytes msize) {
          return lowering::lower_schedule(topo, *optimal, msize);
        }});
    algorithms.push_back(harness::NamedAlgorithm{
        "naive-sequential", [&topo, naive](Bytes msize) {
          return lowering::lower_schedule(topo, *naive, msize);
        }});
    const harness::ExperimentReport report = harness::run_experiment(
        topo, "phase-count ablation on " + name, algorithms, config);
    std::cout << report.to_string() << '\n';
  }
  std::cout << "phase counts\n" << phases.render();
  return 0;
}
