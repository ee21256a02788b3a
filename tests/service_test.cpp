// End-to-end schedule-compilation service tests: cache hits across
// isomorphic relabelings, in-flight request coalescing (the acceptance
// bar: 64 concurrent requests for one canonical key perform exactly one
// compilation), concurrent distinct misses, metrics accounting, and
// executability of the rewritten programs on the caller's topology.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::service {
namespace {

using topology::NodeId;
using topology::Rank;
using topology::Topology;

/// Compilations the service ran: the sample count of its compile
/// latency histogram.
std::int64_t compilations(const obs::RegistrySnapshot& metrics) {
  const obs::SeriesSnapshot* compile =
      metrics.find("aapc_service_compile_seconds");
  return compile != nullptr ? compile->histogram.count : 0;
}

/// Node-order relabeling of `topo` (same tree, fresh labels/ranks).
Topology shuffled_copy(const Topology& topo, Rng& rng) {
  const std::int32_t n = topo.node_count();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  Topology out;
  std::vector<NodeId> new_id(static_cast<std::size_t>(n));
  for (const NodeId old : order) {
    new_id[static_cast<std::size_t>(old)] =
        topo.is_machine(old) ? out.add_machine() : out.add_switch();
  }
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto [a, b] = topo.link_endpoints(l);
    out.add_link(new_id[static_cast<std::size_t>(a)],
                 new_id[static_cast<std::size_t>(b)]);
  }
  out.finalize();
  return out;
}

TEST(ScheduleServiceTest, ColdThenWarm) {
  ScheduleService service;
  const Topology topo = topology::make_paper_topology_b();
  const CompiledRoutine cold = service.compile(topo, 64_KiB);
  EXPECT_FALSE(cold.cache_hit);
  const CompiledRoutine warm = service.compile(topo, 64_KiB);
  EXPECT_TRUE(warm.cache_hit);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.total("aapc_service_requests_total"), 2.0);
  EXPECT_EQ(metrics.value("aapc_service_cache_hits_total"), 1.0);
  EXPECT_EQ(compilations(metrics), 1);
  EXPECT_EQ(warm.schedule.phase_count(), topo.aapc_load());
}

TEST(ScheduleServiceTest, SizeClassesShareScheduleNotEntry) {
  ScheduleService service;
  const Topology topo = topology::make_paper_topology_a();
  const CompiledRoutine at_48k = service.compile(topo, 48_KiB);
  // 48 KiB rounds up to the 64 KiB class.
  EXPECT_EQ(at_48k.entry->class_bytes, 64_KiB);
  const CompiledRoutine at_64k = service.compile(topo, 64_KiB);
  EXPECT_TRUE(at_64k.cache_hit);  // same class
  const CompiledRoutine at_128k = service.compile(topo, 128_KiB);
  EXPECT_FALSE(at_128k.cache_hit);  // next class compiles anew
  EXPECT_EQ(compilations(service.metrics_snapshot()), 2);
}

TEST(ScheduleServiceTest, IsomorphicRelabelingsHitOneEntry) {
  ScheduleService service;
  Rng rng(2024);
  const Topology base = topology::make_paper_topology_c();
  const CompiledRoutine first = service.compile(base, 32_KiB);
  EXPECT_FALSE(first.cache_hit);
  for (int trial = 0; trial < 6; ++trial) {
    const Topology relabeled = shuffled_copy(base, rng);
    const CompiledRoutine served = service.compile(relabeled, 32_KiB);
    EXPECT_TRUE(served.cache_hit) << "trial " << trial;
    // The rewritten schedule must satisfy the paper's Theorem on the
    // caller's labeling, not just the canonical one.
    EXPECT_NO_THROW(core::require_contention_free(relabeled, served.schedule));
    const core::VerifyReport report =
        core::verify_schedule(relabeled, served.schedule);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(served.schedule.phase_count(), relabeled.aapc_load());
  }
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(compilations(metrics), 1);
  EXPECT_EQ(metrics.value("aapc_service_cache_hits_total"), 6.0);
}

TEST(ScheduleServiceTest, RewrittenProgramsExecuteOnCallerTopology) {
  ScheduleService service;
  Rng rng(7);
  const Topology base = topology::make_paper_figure1();
  service.compile(base, 16_KiB);  // populate
  const Topology relabeled = shuffled_copy(base, rng);
  const CompiledRoutine served = service.compile(relabeled, 16_KiB);
  EXPECT_TRUE(served.cache_hit);
  const mpisim::ProgramSet programs = served.caller_programs();
  // The accessor is the canonical programs rewritten through the
  // caller's permutation, nothing more.
  const mpisim::ProgramSet expected = mpisim::relabel_program_set(
      served.entry->programs, core::invert_permutation(served.to_canonical));
  EXPECT_EQ(programs.name, expected.name);
  ASSERT_EQ(programs.rank_count(), relabeled.machine_count());
  ASSERT_EQ(programs.rank_count(), expected.rank_count());
  for (topology::Rank r = 0; r < programs.rank_count(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(programs.programs[i].to_string(programs, r),
              expected.programs[i].to_string(expected, r))
        << "rank " << r;
  }
  // The relabeled program set runs to completion on the caller's
  // topology with exactly-once delivery (the executor's integrity
  // ledger throws otherwise).
  mpisim::Executor executor(relabeled, simnet::NetworkParams{},
                            mpisim::ExecutorParams{});
  const mpisim::ExecutionResult result = executor.run(programs);
  EXPECT_GT(result.completion_time, 0);
  EXPECT_TRUE(result.integrity.ok());
}

TEST(ScheduleServiceTest, CoalescingCompilesExactlyOnce) {
  // The acceptance bar: 64 concurrent requests for one canonical key
  // perform exactly 1 compilation; the other 63 either hit the cache
  // (arrived after publication) or coalesce onto the in-flight future.
  ServiceOptions options;
  options.compiler_threads = 4;
  ScheduleService service(options);
  const Topology topo = topology::make_paper_topology_b();
  constexpr int kRequests = 64;
  std::atomic<int> hits{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int t = 0; t < kRequests; ++t) {
    threads.emplace_back([&service, &topo, &hits, &failures] {
      try {
        const CompiledRoutine routine = service.compile(topo, 64_KiB);
        if (routine.cache_hit) hits.fetch_add(1);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.total("aapc_service_requests_total"), kRequests);
  EXPECT_EQ(compilations(metrics), 1);
  EXPECT_EQ(metrics.value("aapc_service_cache_hits_total") +
                metrics.value("aapc_service_coalesced_waits_total") + 1,
            kRequests);
  // Each request counts once: as a hit, or as a miss (the leader and
  // every coalesced waiter).
  EXPECT_EQ(metrics.value("aapc_service_cache_hits_total") +
                metrics.value("aapc_service_cache_misses_total"),
            kRequests);
}

TEST(ScheduleServiceTest, ManyTopologiesConcurrently) {
  // Concurrency smoke across distinct keys (run under TSan in CI):
  // every distinct (topology, class) compiles at most once.
  ServiceOptions options;
  options.compiler_threads = 4;
  ScheduleService service(options);
  std::vector<Topology> topologies;
  topologies.push_back(topology::make_single_switch(6));
  topologies.push_back(topology::make_star({3, 3}));
  topologies.push_back(topology::make_chain({2, 2, 2}));
  topologies.push_back(topology::make_paper_figure1());
  constexpr int kThreads = 8;
  constexpr int kIterations = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const Topology& topo =
            topologies[static_cast<std::size_t>((t + i) % 4)];
        try {
          const CompiledRoutine routine = service.compile(topo, 32_KiB);
          if (routine.schedule.phase_count() != topo.aapc_load()) {
            failures.fetch_add(1);
          }
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.total("aapc_service_requests_total"),
            kThreads * kIterations);
  EXPECT_LE(compilations(metrics), 4);
}

TEST(ScheduleServiceTest, BurstOfDistinctKeysCompilesEachOnce) {
  // 40 callers ask one fresh service for 40 size classes of a 64-rank
  // fat tree at once. Each caller leads its own key and compiles it on
  // its own thread, borrowing whichever pool workers are idle, so every
  // request is served and every key compiles exactly once.
  ScheduleService service;
  const Topology topo = topology::make_fat_tree(4, 4, 4);
  const Canonicalization canon = canonicalize(topo);
  constexpr int kCallers = 40;
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      const ServedEntry entry = service.lookup(
          topo, Bytes{1} << c, canon, core::CollectiveKind::kAlltoall);
      if (!entry.cache_hit && !entry.coalesced) served.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(served.load(), kCallers);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.value("aapc_service_cache_misses_total"), kCallers);
  EXPECT_EQ(compilations(metrics), kCallers);
}

TEST(ScheduleServiceTest, EvictionOnPublishUnderConcurrency) {
  // A one-entry cache. Six callers each lead a distinct key at once, so
  // each publish evicts the entry before it while other keys compile;
  // then all six ask at once for the first key, which those publishes
  // evicted. Every request is answered, and a key compiles once in
  // each round in which it misses.
  ServiceOptions options;
  options.cache_capacity = 1;
  options.compiler_threads = 2;
  ScheduleService service(options);
  const Topology topo = topology::make_single_switch(6);
  const Canonicalization canon = canonicalize(topo);
  constexpr int kCallers = 6;
  const Bytes first = Bytes{1} << 10;
  std::atomic<int> answered{0};
  std::atomic<int> compiled{0};
  auto ask = [&](Bytes msize) {
    try {
      const ServedEntry served = service.lookup(
          topo, msize, canon, core::CollectiveKind::kAlltoall);
      if (served.entry != nullptr) answered.fetch_add(1);
      if (!served.cache_hit && !served.coalesced) compiled.fetch_add(1);
    } catch (...) {
    }
  };
  auto round = [&](auto msize_of) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] { ask(msize_of(c)); });
    }
    for (std::thread& thread : threads) thread.join();
  };
  ask(first);
  round([&](int c) { return first << (c + 1); });
  EXPECT_EQ(compiled.load(), 1 + kCallers);
  round([&](int) { return first; });
  EXPECT_EQ(compiled.load(), 2 + kCallers);

  constexpr int kRequests = 1 + 2 * kCallers;
  EXPECT_EQ(answered.load(), kRequests);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(compilations(metrics), 2 + kCallers);
  EXPECT_LE(metrics.value("aapc_service_cache_entries"), 1.0);
  // Every compilation published one insertion; all but the last held
  // entry were evicted.
  EXPECT_EQ(metrics.value("aapc_service_cache_evictions_total"),
            static_cast<double>(compilations(metrics) - 1));
  EXPECT_EQ(metrics.total("aapc_service_requests_total"), kRequests);
  EXPECT_EQ(metrics.value("aapc_service_cache_hits_total") +
                metrics.value("aapc_service_cache_misses_total"),
            kRequests);
}

TEST(ScheduleServiceTest, SizeClassMath) {
  EXPECT_EQ(ScheduleService::size_class(1), 0u);
  EXPECT_EQ(ScheduleService::size_class(2), 1u);
  EXPECT_EQ(ScheduleService::size_class(3), 2u);
  EXPECT_EQ(ScheduleService::size_class(4), 2u);
  EXPECT_EQ(ScheduleService::size_class(64_KiB), 16u);
  EXPECT_EQ(ScheduleService::size_class(64_KiB + 1), 17u);
  EXPECT_EQ(ScheduleService::size_class_bytes(16), 64_KiB);
  EXPECT_THROW(ScheduleService::size_class(0), InvalidArgument);
}

TEST(ScheduleServiceTest, SizeClassBoundariesTableDriven) {
  // Pin the bucketing contract at every boundary: class c covers
  // (2^(c-1), 2^c], so 2^k maps to k and 2^k + 1 tips into k + 1 —
  // an off-by-one here silently merges or splits cache entries.
  struct Case {
    Bytes msize;
    std::uint32_t want;
  };
  std::vector<Case> cases{{1, 0}};
  for (std::uint32_t k = 1; k <= 62; ++k) {
    const Bytes pow = Bytes{1} << k;
    // 2^k - 1: still class k for k >= 2 (for k == 1 it is exactly 1,
    // which is class 0 — the only size class 0 covers).
    if (k >= 2) cases.push_back({pow - 1, k});
    cases.push_back({pow, k});      // exact power: class k
    if (k < 62) cases.push_back({pow + 1, k + 1});  // tips over
  }
  for (const Case& c : cases) {
    EXPECT_EQ(ScheduleService::size_class(c.msize), c.want)
        << "msize=" << c.msize;
    // Round-trip: the representative size of the class covers msize.
    EXPECT_GE(ScheduleService::size_class_bytes(
                  ScheduleService::size_class(c.msize)),
              c.msize)
        << "msize=" << c.msize;
  }
  // (2^0, 2^1] edge: class 1's open lower bound excludes 1.
  EXPECT_EQ(ScheduleService::size_class_bytes(0), Bytes{1});
  EXPECT_THROW(ScheduleService::size_class(0), InvalidArgument);
  EXPECT_THROW(ScheduleService::size_class_bytes(63), InvalidArgument);
}

TEST(ScheduleServiceTest, SizeClassRejectsOversizedRequests) {
  // Regression: sizes above 2^62 used to pass entry validation and
  // blow up later (size_class_bytes range check, or shift overflow in
  // the class search loop). They must be rejected up front.
  EXPECT_EQ(ScheduleService::size_class(Bytes{1} << 62), 62u);
  EXPECT_EQ(ScheduleService::size_class((Bytes{1} << 62) - 1), 62u);
  EXPECT_THROW(ScheduleService::size_class((Bytes{1} << 62) + 1),
               InvalidArgument);
  EXPECT_THROW(ScheduleService::size_class(std::numeric_limits<Bytes>::max()),
               InvalidArgument);
  try {
    ScheduleService::size_class((Bytes{1} << 62) + 1);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("largest size class"),
              std::string::npos);
  }
}

TEST(ScheduleServiceTest, MetricsExposeRegistrySeries) {
  ScheduleService service;
  service.compile(topology::make_paper_figure1(), 8_KiB);
  service.compile(topology::make_paper_figure1(), 8_KiB);  // cache hit
  const obs::RegistrySnapshot snap = service.metrics_snapshot();
  // requests is labeled per collective kind; both of these landed on
  // the alltoall series and total() sums all kinds.
  EXPECT_EQ(snap.total("aapc_service_requests_total"), 2.0);
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "alltoall"}}),
            2.0);
  EXPECT_EQ(snap.value("aapc_service_requests_total",
                       obs::Labels{{"kind", "allgather"}}),
            0.0);
  // One outcome per request: the cold request is one miss, the warm
  // one a hit.
  EXPECT_EQ(snap.value("aapc_service_cache_hits_total"), 1.0);
  EXPECT_EQ(snap.value("aapc_service_cache_misses_total"), 1.0);
  EXPECT_EQ(snap.value("aapc_service_cache_entries"), 1.0);
  const obs::SeriesSnapshot* compile =
      snap.find("aapc_service_compile_seconds");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->histogram.count, 1);
  EXPECT_GT(compile->histogram.max, 0.0);
}

}  // namespace
}  // namespace aapc::service
