// E9 — cost of the offline pipeline (google-benchmark).
//
// §5 positions the routine generator as an offline tool; this bench
// shows generation stays cheap enough to run at job-launch time even
// for clusters far larger than the paper's: schedule construction,
// verification, synchronization planning, lowering, and C emission as
// functions of cluster size and shape.
#include <benchmark/benchmark.h>

#include "aapc/codegen/codegen.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/service/service.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using aapc::topology::Topology;

Topology paper_cluster(std::int64_t which) {
  switch (which) {
    case 0:
      return aapc::topology::make_paper_topology_a();
    case 1:
      return aapc::topology::make_paper_topology_b();
    default:
      return aapc::topology::make_paper_topology_c();
  }
}

Topology shaped_topology(std::int64_t machines, std::int64_t shape) {
  switch (shape) {
    case 0:
      return aapc::topology::make_single_switch(
          static_cast<std::int32_t>(machines));
    case 1: {
      const auto per = static_cast<std::int32_t>(machines / 4);
      return aapc::topology::make_star(
          {per, per, per, static_cast<std::int32_t>(machines) - 3 * per});
    }
    default: {
      const auto per = static_cast<std::int32_t>(machines / 4);
      return aapc::topology::make_chain(
          {per, per, per, static_cast<std::int32_t>(machines) - 3 * per});
    }
  }
}

void BM_BuildSchedule(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aapc::core::build_aapc_schedule(topo));
  }
  state.SetLabel(std::to_string(topo.machine_count()) + " machines");
}
BENCHMARK(BM_BuildSchedule)
    ->ArgsProduct({{8, 16, 32, 64, 128}, {0, 1, 2}});

void BM_VerifySchedule(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), 2);
  const aapc::core::Schedule schedule = aapc::core::build_aapc_schedule(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aapc::core::verify_schedule(topo, schedule));
  }
}
BENCHMARK(BM_VerifySchedule)->Arg(16)->Arg(32)->Arg(64);

void BM_SyncPlan(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), 2);
  const aapc::core::Schedule schedule = aapc::core::build_aapc_schedule(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aapc::sync::build_sync_plan(topo, schedule));
  }
}
BENCHMARK(BM_SyncPlan)->Arg(16)->Arg(32)->Arg(64);

void BM_Lowering(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), 2);
  const aapc::core::Schedule schedule = aapc::core::build_aapc_schedule(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aapc::lowering::lower_schedule(topo, schedule, 65536));
  }
}
BENCHMARK(BM_Lowering)->Arg(16)->Arg(32)->Arg(64);

void BM_CodegenC(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), 0);
  const aapc::core::Schedule schedule = aapc::core::build_aapc_schedule(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aapc::codegen::generate_alltoall_c(topo, schedule));
  }
}
BENCHMARK(BM_CodegenC)->Arg(16)->Arg(32);

// Cold compile through the schedule-compilation service: every
// iteration starts from an empty cache, so this is the full pipeline
// (canonicalize + schedule + verify + sync plan + lowering) plus the
// permutation rewrite. Arg: 0 = paper cluster a, 1 = b, 2 = c.
void BM_ServiceColdCompile(benchmark::State& state) {
  const Topology topo = paper_cluster(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    aapc::service::ScheduleService service;
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.compile(topo, 65536));
  }
  state.SetLabel(std::to_string(topo.machine_count()) + " machines");
}
BENCHMARK(BM_ServiceColdCompile)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Cache hit on the same clusters: canonicalize + rewrite only. The gap
// to BM_ServiceColdCompile is what the cache amortizes (recorded in
// EXPERIMENTS.md E10).
void BM_ServiceCacheHit(benchmark::State& state) {
  const Topology topo = paper_cluster(state.range(0));
  aapc::service::ScheduleService service;
  service.compile(topo, 65536);  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.compile(topo, 65536));
  }
  state.SetLabel(std::to_string(topo.machine_count()) + " machines");
}
BENCHMARK(BM_ServiceCacheHit)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_Decompose(benchmark::State& state) {
  const Topology topo = shaped_topology(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aapc::core::decompose(topo));
  }
}
BENCHMARK(BM_Decompose)->Arg(32)->Arg(128);

// Large-scale construction on fat trees: the flat Figure-4 assignment
// (the reference tests compare against) vs the hierarchical path that
// build_aapc_schedule runs (arg 1: 0 = flat, 1 = hierarchical). Both
// produce bit-identical schedules; the comparison isolates the cost of
// the task decomposition itself. bench_schedgen_scale drives the
// 2048/4096-rank points with the wall-clock gate.
void BM_AssignFatTree(benchmark::State& state) {
  const auto ranks = state.range(0);
  const Topology topo =
      ranks >= 1024 ? aapc::topology::make_fat_tree(8, 8, 16)
      : ranks >= 256 ? aapc::topology::make_fat_tree(4, 8, 8)
                     : aapc::topology::make_fat_tree(2, 4, 8);
  const aapc::core::Decomposition dec = aapc::core::decompose(topo);
  const bool hierarchical = state.range(1) != 0;
  for (auto _ : state) {
    if (hierarchical) {
      benchmark::DoNotOptimize(
          aapc::core::assign_messages_hierarchical(dec));
    } else {
      benchmark::DoNotOptimize(aapc::core::assign_messages(dec));
    }
  }
  state.SetLabel(std::to_string(topo.machine_count()) + " machines " +
                 (hierarchical ? "hierarchical" : "flat"));
}
BENCHMARK(BM_AssignFatTree)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
