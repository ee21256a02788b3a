// Simulator microbenchmarks (google-benchmark): cost of max-min rate
// allocation and full executor runs — establishes that sweeping the
// paper's experiments is cheap and how the cost scales with flow count.
#include <benchmark/benchmark.h>

#include "aapc/baselines/baselines.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using aapc::topology::Topology;

void BM_MaxMinAllocation(benchmark::State& state) {
  // `range(0)` simultaneous flows, all-to-all style on a 32-node chain.
  const Topology topo = aapc::topology::make_paper_topology_c();
  const std::int64_t flows = state.range(0);
  for (auto _ : state) {
    aapc::simnet::FluidNetwork network(topo, aapc::simnet::NetworkParams{});
    std::int64_t added = 0;
    for (aapc::topology::Rank src = 0; added < flows; ++src) {
      for (aapc::topology::Rank dst = 0; dst < 32 && added < flows; ++dst) {
        if (src % 32 == dst) continue;
        network.add_flow(topo.machine_node(src % 32), topo.machine_node(dst),
                         1, 0);
        ++added;
      }
    }
    benchmark::DoNotOptimize(network.next_event_time());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinAllocation)->Arg(32)->Arg(128)->Arg(512)->Arg(992);

void BM_AdvanceSweep(benchmark::State& state) {
  // Full event-loop drain: register `range(0)` staggered flows and
  // advance the network event by event until idle. Exercises the
  // pending-activation heap, the cached next-completion, and
  // completion-time row detachment together (the executor's usage
  // pattern, minus the executor).
  const Topology topo = aapc::topology::make_paper_topology_c();
  const std::int64_t flows = state.range(0);
  std::vector<aapc::simnet::FlowId> completed;
  for (auto _ : state) {
    aapc::simnet::FluidNetwork network(topo, aapc::simnet::NetworkParams{});
    std::int64_t added = 0;
    for (aapc::topology::Rank src = 0; added < flows; ++src) {
      for (aapc::topology::Rank dst = 0; dst < 32 && added < flows; ++dst) {
        if (src % 32 == dst) continue;
        // Stagger starts so activations drip out of the pending heap
        // while earlier flows are still draining.
        network.add_flow(topo.machine_node(src % 32), topo.machine_node(dst),
                         4096, 1e-6 * static_cast<double>(added % 64));
        ++added;
      }
    }
    std::int64_t drained = 0;
    while (!network.idle()) {
      completed.clear();
      network.advance_to(network.next_event_time(), completed);
      drained += static_cast<std::int64_t>(completed.size());
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_AdvanceSweep)->Arg(128)->Arg(512)->Arg(2048);

void BM_ExecutorLam(benchmark::State& state) {
  const Topology topo = aapc::topology::make_single_switch(
      static_cast<std::int32_t>(state.range(0)));
  aapc::mpisim::Executor executor(topo, {}, {});
  const aapc::mpisim::ProgramSet set = aapc::baselines::lam_alltoall(
      static_cast<std::int32_t>(state.range(0)), 65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(set));
  }
}
BENCHMARK(BM_ExecutorLam)->Arg(8)->Arg(16)->Arg(24);

void BM_ExecutorGeneratedRoutine(benchmark::State& state) {
  // `range(0)` ranks: paper topology (c) at 32, the simulate workload's
  // make_fat_tree(8, 4, 8) at 256.
  const Topology topo = state.range(0) == 32
                            ? aapc::topology::make_paper_topology_c()
                            : aapc::topology::make_fat_tree(8, 4, 8);
  const aapc::core::Schedule schedule = aapc::core::build_aapc_schedule(topo);
  const aapc::mpisim::ProgramSet set =
      aapc::lowering::lower_schedule(topo, schedule, 65536);
  aapc::mpisim::Executor executor(topo, {}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(set));
  }
}
BENCHMARK(BM_ExecutorGeneratedRoutine)
    ->Arg(32)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
