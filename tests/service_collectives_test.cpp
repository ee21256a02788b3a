// Regression tests for the cache-key collision bugfix: distinct
// collective kinds on the same topology and message size must never
// alias — not in the cache key, and so neither in a cached entry nor in
// a compilation in flight. Also covers the service's sparse-alltoall
// path (canonical neighbor relabeling, exact neighbor-set keying) and
// the per-kind request counters.
#include <gtest/gtest.h>

#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/obs/metrics.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::service {
namespace {

using core::CollectiveKind;
using core::SparseNeighbors;
using topology::Rank;
using topology::Topology;

ServiceOptions small_service() {
  ServiceOptions options;
  options.compiler_threads = 2;
  return options;
}

SparseNeighbors ring_neighbors(std::int32_t n) {
  SparseNeighbors neighbors(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
  }
  return neighbors;
}

TEST(ServiceCollectivesTest, EveryKindGetsADistinctCacheKey) {
  ScheduleService service(small_service());
  const Topology topo = topology::make_star({4, 4});
  const Canonicalization canon = canonicalize(topo);
  const Bytes msize = 64 * 1024;

  const CacheKey alltoall =
      service.cache_key(canon, msize, CollectiveKind::kAlltoall, {});
  const CacheKey allgather =
      service.cache_key(canon, msize, CollectiveKind::kAllgather, {});
  const CacheKey reduce_scatter =
      service.cache_key(canon, msize, CollectiveKind::kReduceScatter, {});
  const CacheKey sparse = service.cache_key(
      canon, msize, CollectiveKind::kSparseAlltoall,
      core::normalize_neighbors(topo.machine_count(), ring_neighbors(8)));

  // Pairwise distinct: the kind (and, for sparse, the neighbor sets)
  // participates in equality.
  const std::vector<CacheKey> keys{alltoall, allgather, reduce_scatter,
                                   sparse};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_FALSE(keys[i] == keys[j]) << i << " vs " << j;
    }
  }
  EXPECT_NE(sparse.pattern_hash, 0u);
  EXPECT_EQ(allgather.pattern_hash, 0u);
  // Different sparse patterns key differently too.
  SparseNeighbors nearest(8);
  for (Rank r = 0; r < 8; ++r) {
    nearest[static_cast<std::size_t>(r)] = {(r + 1) % 8};
  }
  const CacheKey sparse_nearest = service.cache_key(
      canon, msize, CollectiveKind::kSparseAlltoall,
      core::normalize_neighbors(topo.machine_count(), nearest));
  EXPECT_FALSE(sparse == sparse_nearest);
}

TEST(ServiceCollectivesTest, KindsNeverShareCacheEntries) {
  ScheduleService service(small_service());
  const Topology topo = topology::make_single_switch(6);
  const Bytes msize = 4096;

  // Same topology, same message size: each kind cold-misses on first
  // contact even though the alltoall artifact is already cached.
  const CompiledRoutine a2a =
      service.compile(topo, msize, CollectiveKind::kAlltoall);
  const CompiledRoutine ag =
      service.compile(topo, msize, CollectiveKind::kAllgather);
  const CompiledRoutine rs =
      service.compile(topo, msize, CollectiveKind::kReduceScatter);
  EXPECT_FALSE(a2a.cache_hit);
  EXPECT_FALSE(ag.cache_hit);
  EXPECT_FALSE(rs.cache_hit);
  EXPECT_NE(a2a.entry.get(), ag.entry.get());
  EXPECT_NE(ag.entry.get(), rs.entry.get());
  EXPECT_EQ(a2a.schedule.kind, CollectiveKind::kAlltoall);
  EXPECT_EQ(ag.schedule.kind, CollectiveKind::kAllgather);
  EXPECT_EQ(rs.schedule.kind, CollectiveKind::kReduceScatter);

  // Re-requests hit their own kind's entry, never a sibling's.
  const CompiledRoutine ag2 =
      service.compile(topo, msize, CollectiveKind::kAllgather);
  EXPECT_TRUE(ag2.cache_hit);
  EXPECT_EQ(ag2.entry.get(), ag.entry.get());
  const CompiledRoutine a2a2 = service.compile(topo, msize);
  EXPECT_TRUE(a2a2.cache_hit);
  EXPECT_EQ(a2a2.entry.get(), a2a.entry.get());

  // One outcome per request: 3 cold compiles, 2 hits.
  const obs::RegistrySnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.total("aapc_service_requests_total"), 5.0);
  EXPECT_EQ(snap.value("aapc_service_cache_misses_total"), 3.0);
  EXPECT_EQ(snap.value("aapc_service_cache_hits_total"), 2.0);

  // Per-kind request counters carry the split.
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "alltoall"}}),
            2.0);
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "allgather"}}),
            2.0);
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "reduce_scatter"}}),
            1.0);
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "sparse_alltoall"}}),
            0.0);
}

TEST(ServiceCollectivesTest, RingKindsServeOptimalSchedulesInCallerRanks) {
  ScheduleService service(small_service());
  const Topology topo = topology::make_star({3, 3, 2});
  const std::int64_t n = topo.machine_count();
  for (const CollectiveKind kind :
       {CollectiveKind::kAllgather, CollectiveKind::kReduceScatter}) {
    const CompiledRoutine routine = service.compile(topo, 4096, kind);
    EXPECT_EQ(routine.schedule.kind, kind);
    EXPECT_EQ(routine.schedule.phase_count(), n - 1);
    const core::VerifyReport report =
        core::verify_collective_schedule(topo, routine.schedule);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(routine.caller_programs().rank_count(), n);
  }
}

TEST(ServiceCollectivesTest, SparseAlltoallCompilesAndRehits) {
  ScheduleService service(small_service());
  const Topology topo = topology::make_single_switch(8);
  const SparseNeighbors neighbors = ring_neighbors(8);

  const CompiledRoutine first =
      service.compile(topo, 4096, CollectiveKind::kSparseAlltoall, neighbors);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.schedule.kind, CollectiveKind::kSparseAlltoall);
  EXPECT_EQ(first.schedule.message_count(), 16);
  const core::VerifyReport report =
      core::verify_collective_schedule(topo, first.schedule, neighbors);
  EXPECT_TRUE(report.ok) << report.summary();

  // Identical request: cache hit on the same entry.
  const CompiledRoutine again =
      service.compile(topo, 4096, CollectiveKind::kSparseAlltoall, neighbors);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.entry.get(), first.entry.get());

  // A different pattern on the same topology is a different artifact.
  SparseNeighbors nearest(8);
  for (Rank r = 0; r < 8; ++r) {
    nearest[static_cast<std::size_t>(r)] = {(r + 1) % 8};
  }
  const CompiledRoutine other =
      service.compile(topo, 4096, CollectiveKind::kSparseAlltoall, nearest);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_NE(other.entry.get(), first.entry.get());
  EXPECT_EQ(other.schedule.message_count(), 8);
}

TEST(ServiceCollectivesTest, NeighborsRejectedForNonSparseKinds) {
  ScheduleService service(small_service());
  const Topology topo = topology::make_single_switch(4);
  const SparseNeighbors neighbors = ring_neighbors(4);
  EXPECT_THROW(
      service.compile(topo, 4096, CollectiveKind::kAllgather, neighbors),
      Error);
  // Malformed sparse shapes surface as InvalidArgument, not a crash.
  EXPECT_THROW(service.compile(topo, 4096, CollectiveKind::kSparseAlltoall,
                               SparseNeighbors(3)),
               InvalidArgument);
}

}  // namespace
}  // namespace aapc::service
