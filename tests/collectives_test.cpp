// Multi-collective schedule builders (core/collectives.hpp): DFS-ring
// pipelines for allgather/reduce-scatter hitting the bandwidth-optimal
// phase bound, sparse alltoall over induced patterns, the
// fully-dense-degenerates-to-AAPC equivalence, and end-to-end executor
// runs auditing per-kind delivery via the DeliveryLedger.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::Rank;
using topology::Topology;

std::vector<Topology> paper_topologies() {
  std::vector<Topology> topos;
  topos.push_back(topology::make_paper_figure1());
  topos.push_back(topology::make_paper_topology_a());
  topos.push_back(topology::make_paper_topology_b());
  topos.push_back(topology::make_paper_topology_c());
  return topos;
}

TEST(DfsMachineOrderTest, IsAPermutationOfAllRanks) {
  for (const Topology& topo : paper_topologies()) {
    const std::vector<Rank> order = dfs_machine_order(topo);
    ASSERT_EQ(static_cast<std::int32_t>(order.size()), topo.machine_count());
    std::vector<Rank> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (Rank r = 0; r < topo.machine_count(); ++r) {
      EXPECT_EQ(sorted[static_cast<std::size_t>(r)], r);
    }
  }
}

TEST(RingPipelineTest, AllgatherMeetsTheBandwidthOptimalPhaseBound) {
  for (const Topology& topo : paper_topologies()) {
    const Schedule schedule = build_allgather_schedule(topo);
    EXPECT_EQ(schedule.kind, CollectiveKind::kAllgather);
    const std::int64_t n = topo.machine_count();
    // n - 1 rounds of n ring messages; each round contention-free.
    EXPECT_EQ(schedule.phase_count(), n - 1);
    EXPECT_EQ(schedule.message_count(), (n - 1) * n);
    EXPECT_EQ(collective_phase_lower_bound(topo, CollectiveKind::kAllgather),
              n - 1);
    const VerifyReport report = verify_collective_schedule(topo, schedule);
    EXPECT_TRUE(report.ok) << report.summary();
  }
}

TEST(RingPipelineTest, ReduceScatterIsTheReverseRingAndOptimal) {
  for (const Topology& topo : paper_topologies()) {
    const Schedule schedule = build_reduce_scatter_schedule(topo);
    EXPECT_EQ(schedule.kind, CollectiveKind::kReduceScatter);
    EXPECT_EQ(schedule.phase_count(), topo.machine_count() - 1);
    const VerifyReport report = verify_collective_schedule(topo, schedule);
    EXPECT_TRUE(report.ok) << report.summary();
    // Dual of the forward ring: reversing every message of the
    // allgather schedule yields exactly this message multiset.
    const Schedule forward = build_allgather_schedule(topo);
    std::vector<Message> reversed;
    for (const Message& m : forward.messages) {
      reversed.push_back(Message{m.dst, m.src});
    }
    std::vector<Message> ours = schedule.messages;
    std::sort(reversed.begin(), reversed.end());
    std::sort(ours.begin(), ours.end());
    EXPECT_EQ(ours, reversed);
  }
}

TEST(RingPipelineTest, DegenerateSizes) {
  // Two machines: one round holding both directions (duplex links).
  const Topology pair = topology::make_single_switch(2);
  const Schedule two = build_allgather_schedule(pair);
  EXPECT_EQ(two.phase_count(), 1);
  EXPECT_EQ(two.message_count(), 2);
  EXPECT_TRUE(verify_collective_schedule(pair, two).ok);
  // One machine: nothing to exchange.
  const Schedule one =
      build_reduce_scatter_schedule(topology::make_single_switch(1));
  EXPECT_EQ(one.phase_count(), 0);
  EXPECT_EQ(one.kind, CollectiveKind::kReduceScatter);
}

TEST(SparseAlltoallTest, RingNeighborhoodSchedulesAndVerifies) {
  for (const Topology& topo : paper_topologies()) {
    const auto n = topo.machine_count();
    SparseNeighbors neighbors(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) {
      neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
    }
    const Schedule schedule = build_sparse_alltoall_schedule(topo, neighbors);
    EXPECT_EQ(schedule.kind, CollectiveKind::kSparseAlltoall);
    EXPECT_EQ(schedule.message_count(), 2 * n);
    const VerifyReport report =
        verify_collective_schedule(topo, schedule, neighbors);
    EXPECT_TRUE(report.ok) << report.summary();
    // Greedy is never below the pattern-load lower bound.
    EXPECT_GE(schedule.phase_count(),
              collective_phase_lower_bound(
                  topo, CollectiveKind::kSparseAlltoall, neighbors));
  }
}

TEST(SparseAlltoallTest, EmptyAndSelfOnlyNeighborSetsYieldNoMessages) {
  const Topology topo = topology::make_single_switch(5);
  const SparseNeighbors empty(5);
  EXPECT_EQ(build_sparse_alltoall_schedule(topo, empty).message_count(), 0);
  SparseNeighbors self_only(5);
  for (Rank r = 0; r < 5; ++r) {
    self_only[static_cast<std::size_t>(r)] = {r};  // dropped by normalize
  }
  const Schedule schedule = build_sparse_alltoall_schedule(topo, self_only);
  EXPECT_EQ(schedule.message_count(), 0);
  EXPECT_EQ(schedule.kind, CollectiveKind::kSparseAlltoall);
  EXPECT_TRUE(verify_collective_schedule(topo, schedule, self_only).ok);
}

TEST(SparseAlltoallTest, FullyDenseDegeneratesToAapcBitIdentically) {
  for (const Topology& topo : paper_topologies()) {
    const auto n = topo.machine_count();
    SparseNeighbors dense(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) {
      for (Rank v = 0; v < n; ++v) {
        if (v != r) dense[static_cast<std::size_t>(r)].push_back(v);
      }
    }
    const Schedule sparse = build_sparse_alltoall_schedule(topo, dense);
    const Schedule aapc = build_aapc_schedule(topo);
    // The paper's optimal path, bit for bit — only the kind differs.
    EXPECT_EQ(sparse.messages, aapc.messages);
    EXPECT_EQ(sparse.phase_begin, aapc.phase_begin);
    EXPECT_EQ(sparse.kind, CollectiveKind::kSparseAlltoall);
    EXPECT_EQ(aapc.kind, CollectiveKind::kAlltoall);
  }
}

TEST(SparseAlltoallTest, NormalizeRejectsBadShapes) {
  const Topology topo = topology::make_single_switch(4);
  EXPECT_THROW(build_sparse_alltoall_schedule(topo, SparseNeighbors(3)),
               InvalidArgument);
  SparseNeighbors out_of_range(4);
  out_of_range[0] = {7};
  EXPECT_THROW(build_sparse_alltoall_schedule(topo, out_of_range),
               InvalidArgument);
}

TEST(SparseNeighborsTest, HashAndRelabelAreConsistent) {
  SparseNeighbors a{{1, 2}, {0}, {0, 1}};
  SparseNeighbors b{{1, 2}, {0}, {0, 1}};
  SparseNeighbors c{{1, 2}, {0}, {1}};
  EXPECT_EQ(sparse_pattern_hash(a), sparse_pattern_hash(b));
  EXPECT_NE(sparse_pattern_hash(a), sparse_pattern_hash(c));
  // Relabeling through the identity is a no-op; through a rotation it
  // permutes both the index and the members.
  EXPECT_EQ(relabel_neighbors(a, {0, 1, 2}), a);
  const SparseNeighbors rotated = relabel_neighbors(a, {1, 2, 0});
  const SparseNeighbors want{{1, 2}, {0, 2}, {1}};  // sets stay sorted
  EXPECT_EQ(rotated, want);
}

TEST(CollectiveKindTest, NamesParseAndValidate) {
  for (std::uint8_t raw = 0; raw < 4; ++raw) {
    EXPECT_TRUE(collective_kind_valid(raw));
    const auto kind = static_cast<CollectiveKind>(raw);
    EXPECT_EQ(parse_collective_kind(collective_kind_name(kind)), kind);
  }
  EXPECT_FALSE(collective_kind_valid(4));
  EXPECT_FALSE(collective_kind_valid(255));
  EXPECT_THROW(parse_collective_kind("gather"), InvalidArgument);
}

TEST(CollectiveKindTest, SurvivesRelabelAndJsonRoundTrip) {
  const Topology topo = topology::make_single_switch(4);
  const Schedule schedule = build_allgather_schedule(topo);
  const Schedule relabeled = relabel_schedule(schedule, {2, 3, 0, 1});
  EXPECT_EQ(relabeled.kind, CollectiveKind::kAllgather);
  const std::string json = schedule_to_json(schedule, topo.machine_count());
  EXPECT_NE(json.find("\"kind\":\"allgather\""), std::string::npos);
  const Schedule back = schedule_from_json(json, topo.machine_count());
  EXPECT_EQ(back.kind, CollectiveKind::kAllgather);
  EXPECT_EQ(back.messages, schedule.messages);
  // Alltoall stays implicit so pre-kind JSON is byte-stable.
  const std::string aapc_json =
      schedule_to_json(build_aapc_schedule(topo), topo.machine_count());
  EXPECT_EQ(aapc_json.find("kind"), std::string::npos);
  EXPECT_EQ(schedule_from_json(aapc_json, topo.machine_count()).kind,
            CollectiveKind::kAlltoall);
}

// End-to-end: lower each kind and run it on the fluid executor; the
// DeliveryLedger audits exactly-once delivery of every transfer, and
// the data-message count must equal the kind's pattern size.
TEST(CollectiveExecutionTest, EveryKindDeliversExactlyOnce) {
  const Topology topo = topology::make_star({3, 3, 2});
  const auto n = static_cast<std::int64_t>(topo.machine_count());
  SparseNeighbors ring(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    ring[static_cast<std::size_t>(r)] = {
        static_cast<Rank>((r + 1) % n),
        static_cast<Rank>((r + n - 1) % n)};
  }
  struct Case {
    Schedule schedule;
    std::int64_t expected_messages;
  };
  const std::vector<Case> cases{
      {build_allgather_schedule(topo), (n - 1) * n},
      {build_reduce_scatter_schedule(topo), (n - 1) * n},
      {build_sparse_alltoall_schedule(topo, ring), 2 * n},
      {build_aapc_schedule(topo), n * (n - 1)},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.schedule.message_count(), c.expected_messages)
        << collective_kind_name(c.schedule.kind);
    const mpisim::ProgramSet programs =
        lowering::lower_schedule(topo, c.schedule, 16384);
    mpisim::ExecutorParams exec;
    exec.wakeup_jitter_max = 0;
    mpisim::Executor executor(topo, {}, exec);
    const mpisim::ExecutionResult result = executor.run(programs);
    EXPECT_TRUE(result.integrity.ok())
        << collective_kind_name(c.schedule.kind) << ": "
        << result.integrity.summary();
    // Every matched transfer (data + sync) is stamped and audited.
    EXPECT_EQ(result.integrity.expected, result.message_count);
    EXPECT_EQ(result.integrity.delivered, result.message_count);
    // The audit covers at least one entry per scheduled data message.
    EXPECT_GE(result.integrity.expected, c.expected_messages);
  }
}

}  // namespace
}  // namespace aapc::core
