// Regression tests for the simulation-core fast path: event ordering
// under kTimeEpsilon ties, pending-activation heap behavior, hot-path
// statistics counters, and a bit-exact determinism golden pinning
// executor completion times on every case of the `simulate` workload.
#include <gtest/gtest.h>

#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::simnet {
namespace {

using topology::make_single_switch;
using topology::Topology;

/// Params with every loss mechanism disabled: exact max-min fair sharing
/// at 12.5 MB/s per direction.
NetworkParams ideal_params() {
  NetworkParams params;
  params.protocol_efficiency = 1.0;
  params.node_contention_penalty = 0.0;
  params.trunk_contention_penalty = 0.0;
  params.node_efficiency_floor = 1.0;
  params.trunk_efficiency_floor = 1.0;
  params.duplex_efficiency = 1.0;
  params.switch_fabric_links = 1e9;
  return params;
}

/// Runs the network until idle; returns completion times per flow id.
std::vector<SimTime> drain(FluidNetwork& network, std::size_t flow_count) {
  std::vector<SimTime> completion(flow_count, -1);
  std::vector<FlowId> completed;
  while (!network.idle()) {
    const SimTime next = network.next_event_time();
    EXPECT_NE(next, kNever) << "network stuck with active flows";
    if (next == kNever) break;
    completed.clear();
    network.advance_to(next, completed);
    for (const FlowId id : completed) {
      completion[static_cast<std::size_t>(id)] = network.now();
    }
  }
  return completion;
}

TEST(FastPathTest, ZeroByteFlowCompletesImmediately) {
  const Topology topo = make_single_switch(3);
  FluidNetwork network(topo, ideal_params());
  const FlowId zero =
      network.add_flow(topo.machine_node(0), topo.machine_node(1), 0, 0);
  const FlowId bulk = network.add_flow(topo.machine_node(1),
                                       topo.machine_node(2), 12'500'000, 0);
  const std::vector<SimTime> done = drain(network, 2);
  // The zero-byte flow must complete at the very first event (time ~0),
  // not be deferred past the bulk transfer.
  EXPECT_NEAR(done[static_cast<std::size_t>(zero)], 0.0, 1e-9);
  EXPECT_NEAR(done[static_cast<std::size_t>(bulk)], 1.0, 1e-9);
  EXPECT_EQ(network.stats().completed_flows, 2);
}

TEST(FastPathTest, ZeroByteFlowWithFutureStart) {
  const Topology topo = make_single_switch(2);
  FluidNetwork network(topo, ideal_params());
  const FlowId id =
      network.add_flow(topo.machine_node(0), topo.machine_node(1), 0, 0.5);
  EXPECT_NEAR(network.next_event_time(), 0.5, 1e-12);
  const std::vector<SimTime> done = drain(network, 1);
  EXPECT_NEAR(done[static_cast<std::size_t>(id)], 0.5, 1e-9);
}

TEST(FastPathTest, SimultaneousActivationsWithinEpsilonBatch) {
  // Two pending flows whose start times differ by less than kTimeEpsilon
  // (1e-12) must activate in the same event batch and share the uplink
  // from the very first instant — identical completion times.
  const Topology topo = make_single_switch(3);
  FluidNetwork network(topo, ideal_params());
  const FlowId a = network.add_flow(topo.machine_node(0),
                                    topo.machine_node(1), 12'500'000, 1.0);
  const FlowId b =
      network.add_flow(topo.machine_node(0), topo.machine_node(2), 12'500'000,
                       1.0 + 1e-13);
  const std::vector<SimTime> done = drain(network, 2);
  EXPECT_EQ(done[static_cast<std::size_t>(a)],
            done[static_cast<std::size_t>(b)]);
  // Shared source uplink: 12.5 MB each at 6.25 MB/s, starting at t=1.
  EXPECT_NEAR(done[static_cast<std::size_t>(a)], 3.0, 1e-9);
}

TEST(FastPathTest, PendingFlowsActivateOutOfInsertionOrder) {
  // Insert pending flows with descending start times; the activation
  // heap must release them in time order regardless of insertion order.
  const Topology topo = make_single_switch(4);
  FluidNetwork network(topo, ideal_params());
  const FlowId late = network.add_flow(topo.machine_node(0),
                                       topo.machine_node(1), 1'250'000, 2.0);
  const FlowId mid = network.add_flow(topo.machine_node(1),
                                      topo.machine_node(2), 1'250'000, 1.0);
  const FlowId early = network.add_flow(topo.machine_node(2),
                                        topo.machine_node(3), 1'250'000, 0.5);
  EXPECT_NEAR(network.next_event_time(), 0.5, 1e-12);
  const std::vector<SimTime> done = drain(network, 3);
  // Disjoint machine pairs: each runs at full rate for 0.1s after its
  // start.
  EXPECT_NEAR(done[static_cast<std::size_t>(early)], 0.6, 1e-9);
  EXPECT_NEAR(done[static_cast<std::size_t>(mid)], 1.1, 1e-9);
  EXPECT_NEAR(done[static_cast<std::size_t>(late)], 2.1, 1e-9);
  EXPECT_EQ(network.stats().pending_heap_pushes, 3);
}

TEST(FastPathTest, StatsCountersTrackHotPathStructures) {
  const Topology topo = make_single_switch(3);
  FluidNetwork network(topo, ideal_params());
  // One immediate flow (no heap push), one deferred (one heap push).
  network.add_flow(topo.machine_node(0), topo.machine_node(1), 1'000, 0);
  network.add_flow(topo.machine_node(1), topo.machine_node(2), 1'000, 0.5);
  const NetworkStats& stats = network.stats();
  EXPECT_EQ(stats.pending_heap_pushes, 1);
  // The immediate flow occupies 5 capacity rows on a single switch: two
  // path edges, both endpoint machine rows, and the switch fabric row.
  network.next_event_time();  // force a rate recomputation
  EXPECT_EQ(stats.max_active_rows, 5);
  drain(network, 2);
  EXPECT_EQ(stats.completed_flows, 2);
  EXPECT_EQ(stats.max_concurrent_flows, 1);
  EXPECT_GE(stats.rate_recomputations, 2);
}

// Determinism golden: Executor::run completion times and message counts
// for every case of the `simulate` benchmark workload — the generated
// schedule, LAM and MPICH on the three paper topologies at 64 KiB, plus
// the generated schedule on a 256-rank fat tree — pinned bit-exactly.
// The paper-topology times of the generated schedule and LAM are the
// values of the original (pre-fast-path) simulator core. Any change to
// event ordering, post matching, rate arithmetic, or tie-breaking under
// kTimeEpsilon shows up here as a bit-level difference.
enum class Algorithm { kGenerated, kLam, kMpich };

struct GoldenCase {
  const char* name;
  Topology (*make)();
  Algorithm algorithm;
  double completion_time;
  std::int64_t message_count;
};

Topology make_fat_tree_256() { return topology::make_fat_tree(8, 4, 8); }

TEST(DeterminismGoldenTest, SimulateCasesCompletionTimesBitExact) {
  using enum Algorithm;
  const GoldenCase cases[] = {
      {"a/generated", topology::make_paper_topology_a, kGenerated,
       0x1.b6a6c3434f4eep-3, 1080},
      {"a/lam", topology::make_paper_topology_a, kLam, 0x1.3cbc3de5a5149p-2,
       552},
      {"a/mpich", topology::make_paper_topology_a, kMpich,
       0x1.9102d3e04970bp-3, 552},
      {"b/generated", topology::make_paper_topology_b, kGenerated,
       0x1.7a2f4854f6c13p+0, 1669},
      {"b/lam", topology::make_paper_topology_b, kLam, 0x1.a49beb85dcddap+0,
       992},
      {"b/mpich", topology::make_paper_topology_b, kMpich,
       0x1.39c08d3a110e4p+0, 992},
      {"c/generated", topology::make_paper_topology_c, kGenerated,
       0x1.fbf33b3d06906p+0, 1919},
      {"c/lam", topology::make_paper_topology_c, kLam, 0x1.18367224e4f19p+1,
       992},
      {"c/mpich", topology::make_paper_topology_c, kMpich,
       0x1.12447a6b32c42p+1, 992},
      {"fat256/generated", make_fat_tree_256, kGenerated,
       0x1.c18d464e61d47p+5, 149018},
  };
  constexpr Bytes kMsize = 65536;
  for (const GoldenCase& c : cases) {
    const Topology topo = c.make();
    const std::int32_t n = topo.machine_count();
    mpisim::ProgramSet programs;
    switch (c.algorithm) {
      case kGenerated:
        programs = lowering::lower_schedule(
            topo, core::build_aapc_schedule(topo), kMsize);
        break;
      case kLam:
        programs = baselines::lam_alltoall(n, kMsize);
        break;
      case kMpich:
        programs = baselines::mpich_alltoall(n, kMsize);
        break;
    }
    mpisim::Executor executor(topo, {}, {});
    const mpisim::ExecutionResult run = executor.run(programs);
    EXPECT_EQ(run.completion_time, c.completion_time)
        << c.name << " completion time drifted";
    EXPECT_EQ(run.message_count, c.message_count)
        << c.name << " message count drifted";
  }
}

}  // namespace
}  // namespace aapc::simnet
