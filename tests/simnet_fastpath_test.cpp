// Regression tests for the simulation-core fast path: event ordering
// under kTimeEpsilon ties, pending-activation heap behavior, hot-path
// statistics counters, a bit-exact determinism golden pinning executor
// completion times on every case of the `simulate` workload, and a
// bit-exact golden of seeded random event sequences.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/common/rng.hpp"
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

// A rate recomputation refills only the flows reachable from the rows
// an event changed, through rows that can bind; every other flow keeps
// its rate.
TEST(LocalRefillTest, EventRefillsOnlyTheFlowsItTouched) {
  const Topology topo = make_single_switch(6);
  FluidNetwork network(topo, ideal_params());
  const auto machine = [&](std::int32_t r) { return topo.machine_node(r); };
  const FlowId a = network.add_flow(machine(0), machine(1), 12'500'000, 0);
  const FlowId b = network.add_flow(machine(2), machine(3), 12'500'000, 0);
  network.next_event_time();
  EXPECT_EQ(network.stats().refilled_flows, 2);
  // Disjoint from a and b: only the new flow is filled.
  const FlowId c = network.add_flow(machine(4), machine(5), 6'250'000, 0);
  EXPECT_EQ(network.flow_rate(c), 12.5e6);
  EXPECT_EQ(network.stats().refilled_flows, 3);
  // The reverse of a shares both duplex rows with it, and a duplex row
  // carrying two flows can bind: a is refilled with it, b and c are not.
  const FlowId d = network.add_flow(machine(1), machine(0), 12'500'000, 0);
  EXPECT_EQ(network.flow_rate(d), 12.5e6);
  EXPECT_EQ(network.stats().refilled_flows, 5);
  // c completes alone on its rows: nothing is refilled.
  std::vector<FlowId> completed;
  network.advance_to(network.next_event_time(), completed);
  ASSERT_EQ(completed, std::vector<FlowId>{c});
  EXPECT_EQ(network.flow_rate(a), 12.5e6);
  EXPECT_EQ(network.flow_rate(b), 12.5e6);
  EXPECT_EQ(network.stats().refilled_flows, 5);
  EXPECT_EQ(network.stats().rate_recomputations, 4);
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

// On the 256-rank generated case a recomputation refills 1.14 flows on
// average; refilling every active flow would take about 6.8. The exact
// counts catch a silent fall back to full refills.
TEST(LocalRefillTest, GeneratedFatTreeRefillCount) {
  const Topology topo = make_fat_tree_256();
  const mpisim::ProgramSet programs = lowering::lower_schedule(
      topo, core::build_aapc_schedule(topo), 65536);
  mpisim::Executor executor(topo, {}, {});
  const mpisim::ExecutionResult run = executor.run(programs);
  EXPECT_EQ(run.network_stats.rate_recomputations, 298018);
  EXPECT_EQ(run.network_stats.refilled_flows, 340699);
}

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

// Random-sequence golden: seeded runs of the fluid network through its
// public API, each reduced to one digest of every completion (flow id
// and time) and of every flow's rate after every event, bit for bit.
// The inputs: random trees with mixed link rates, the default contention
// penalties, pending starts, zero-byte flows, cancellations, and
// scheduled degrade, down and up events. Two of the rates lie a hair
// apart, so levels of separate components can fall within the filling's
// 1e-9 tie window: in seeds 2, 4, 5 and 10 a round fixes flows of one
// component at a level that only another component's share reaches.

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t value) {
    h_ ^= value;
    h_ *= 0x100000001b3ull;
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t random_sequence_digest(std::uint64_t seed) {
  Rng rng(seed);
  topology::RandomTreeOptions shape;
  shape.switches = static_cast<std::int32_t>(rng.next_in(3, 8));
  shape.machines = static_cast<std::int32_t>(rng.next_in(16, 32));
  const Topology topo = topology::make_random_tree(rng, shape);
  NetworkParams params;
  const double rates[] = {12.5e6, 12.5e6 * (1 + 4e-10), 6.25e6, 3.125e6};
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (rng.next_bool(0.6)) {
      params.link_bandwidth_overrides.emplace_back(l, rates[rng.next_below(4)]);
    }
  }
  FluidNetwork network(topo, params);
  for (int i = 0; i < 3; ++i) {
    const auto link = static_cast<topology::LinkId>(
        rng.next_below(static_cast<std::uint64_t>(topo.link_count())));
    const double nominal = network.link_capacity(link);
    const SimTime degrade = 0.02 * rng.next_double();
    const SimTime down = degrade + 0.02 * rng.next_double();
    const SimTime up = down + 0.02 * rng.next_double();
    network.schedule_capacity_change(degrade, link, 0.5 * nominal);
    network.schedule_capacity_change(down, link, 0.0);
    network.schedule_capacity_change(up, link, nominal);
  }
  const auto machines = static_cast<std::uint64_t>(topo.machine_count());
  Digest digest;
  std::vector<FlowId> flows;
  std::vector<FlowId> completed;
  const auto record = [&] {
    for (const FlowId id : completed) {
      digest.mix(static_cast<std::uint64_t>(id));
      digest.mix(network.now());
    }
    for (const FlowId id : flows) digest.mix(network.flow_rate(id));
  };
  for (int step = 0; step < 300; ++step) {
    const int adds = step < 200 && rng.next_bool(0.4)
                         ? static_cast<int>(rng.next_in(1, 2))
                         : 0;
    for (int a = 0; a < adds; ++a) {
      const auto src = static_cast<std::int32_t>(rng.next_below(machines));
      auto dst = static_cast<std::int32_t>(rng.next_below(machines - 1));
      if (dst >= src) ++dst;
      const Bytes bytes = rng.next_bool(0.1)
                              ? 0
                              : static_cast<Bytes>(rng.next_in(1, 64)) * 1024;
      const SimTime start =
          network.now() +
          (rng.next_bool(0.5) ? 0.0 : 0.002 * rng.next_double());
      flows.push_back(network.add_flow(topo.machine_node(src),
                                       topo.machine_node(dst), bytes, start));
    }
    if (!flows.empty() && rng.next_bool(0.05)) {
      network.cancel_flow(flows[rng.next_below(flows.size())]);
    }
    const SimTime next = network.next_event_time();
    if (next == kNever) continue;
    completed.clear();
    network.advance_to(next, completed);
    record();
  }
  while (!network.idle()) {
    completed.clear();
    network.advance_to(network.next_event_time(), completed);
    record();
  }
  digest.mix(static_cast<std::uint64_t>(network.stats().rate_recomputations));
  return digest.value();
}

TEST(RandomSequenceGoldenTest, RatesAndCompletionsBitExact) {
  const std::uint64_t expected[] = {
      0x7cab9188c4c3bb38ull, 0x4dd6f56d59c79654ull, 0x17d55e2273d0404eull,
      0xbf09914fefca1874ull, 0xc1c7e7f557792efeull, 0xc91cb014522dd577ull,
      0x9a2ef447d18832c9ull, 0xcf3fba2ad56a9290ull, 0x3d1c2e1efa4d0310ull,
      0x624c1f23ce1a86a4ull, 0xbef9e95dd376c998ull, 0x74b5d301c62624c6ull,
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EXPECT_EQ(random_sequence_digest(seed), expected[seed - 1])
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aapc::simnet
