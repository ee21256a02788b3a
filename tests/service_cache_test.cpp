// Schedule-cache unit tests: claims that hit, lead or wait, exact keys,
// LRU eviction order, byte accounting, failed compilations, and
// concurrent access.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aapc/service/schedule_cache.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::service {
namespace {

CacheKey key_of(std::uint64_t hash, const std::string& form,
                std::uint32_t size_class = 16) {
  CacheKey key;
  key.topology_hash = hash;
  key.size_class = size_class;
  key.canonical_form = form;
  return key;
}

CompiledEntryPtr entry_with_bytes(std::int64_t bytes) {
  auto entry = std::make_shared<CompiledEntry>();
  entry->footprint_bytes = bytes;
  return entry;
}

/// Claims `key` as its leader and publishes `entry` for it.
void put(ScheduleCache& cache, const CacheKey& key, CompiledEntryPtr entry) {
  ASSERT_TRUE(cache.claim(key).leader());
  cache.publish(key, std::move(entry));
}

/// The cached entry for `key`, or nullptr after releasing the claim a
/// miss makes.
CompiledEntryPtr cached(ScheduleCache& cache, const CacheKey& key) {
  ScheduleCache::Claim claim = cache.claim(key);
  if (claim.leader()) {
    cache.fail(key, std::make_exception_ptr(std::runtime_error("probe")));
  }
  return claim.entry;
}

TEST(ScheduleCacheTest, MissThenHit) {
  ScheduleCache cache(8);
  const CompiledEntryPtr entry = entry_with_bytes(1);
  put(cache, key_of(1, "A"), entry);
  const ScheduleCache::Claim hit = cache.claim(key_of(1, "A"));
  EXPECT_FALSE(hit.leader());
  EXPECT_FALSE(hit.pending.valid());
  EXPECT_EQ(hit.entry, entry);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(ScheduleCacheTest, DistinctSizeClassesAreDistinctEntries) {
  ScheduleCache cache(8);
  put(cache, key_of(1, "A", 10), entry_with_bytes(1));
  EXPECT_EQ(cached(cache, key_of(1, "A", 11)), nullptr);
  EXPECT_NE(cached(cache, key_of(1, "A", 10)), nullptr);
}

TEST(ScheduleCacheTest, EqualHashesWithDifferentFormsAreTwoEntries) {
  // Two trees whose hashes collide: neither is served the other's
  // artifact, neither waits on the other's compilation, and both stay
  // cached side by side. Sparse patterns and kinds are exact the same
  // way.
  ScheduleCache cache(8);
  const CacheKey a = key_of(42, "A");
  const CacheKey b = key_of(42, "B");
  ASSERT_TRUE(cache.claim(a).leader());
  EXPECT_TRUE(cache.claim(b).leader());  // not a wait on A's compilation
  const CompiledEntryPtr entry_a = entry_with_bytes(1);
  const CompiledEntryPtr entry_b = entry_with_bytes(2);
  cache.publish(a, entry_a);
  cache.publish(b, entry_b);
  EXPECT_EQ(cached(cache, a), entry_a);
  EXPECT_EQ(cached(cache, b), entry_b);
  EXPECT_EQ(cache.stats().entries, 2);

  CacheKey sparse_ring = key_of(42, "A");
  sparse_ring.kind = core::CollectiveKind::kSparseAlltoall;
  sparse_ring.neighbors = {{1}, {0}};
  CacheKey sparse_none = sparse_ring;
  sparse_none.neighbors = {{}, {}};
  CacheKey allgather = key_of(42, "A");
  allgather.kind = core::CollectiveKind::kAllgather;
  for (const CacheKey& other : {sparse_ring, sparse_none, allgather}) {
    EXPECT_EQ(cached(cache, other), nullptr);
  }
}

TEST(ScheduleCacheTest, LruEvictionOrder) {
  // Capacity 2: inserting a third entry evicts the least
  // recently used, and a hit refreshes recency.
  ScheduleCache cache(2);
  put(cache, key_of(1, "A"), entry_with_bytes(1));
  put(cache, key_of(2, "B"), entry_with_bytes(1));
  EXPECT_NE(cached(cache, key_of(1, "A")), nullptr);  // A is now MRU
  put(cache, key_of(3, "C"), entry_with_bytes(1));    // evicts B
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cached(cache, key_of(1, "A")), nullptr);
  EXPECT_NE(cached(cache, key_of(3, "C")), nullptr);
  EXPECT_EQ(cached(cache, key_of(2, "B")), nullptr);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(ScheduleCacheTest, EvictionDoesNotInvalidateServedEntries) {
  ScheduleCache cache(1);
  put(cache, key_of(1, "A"), entry_with_bytes(123));
  const CompiledEntryPtr held = cached(cache, key_of(1, "A"));
  put(cache, key_of(2, "B"), entry_with_bytes(1));  // evicts A
  EXPECT_EQ(cached(cache, key_of(1, "A")), nullptr);
  // The shared_ptr handed out earlier stays valid.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->footprint_bytes, 123);
}

TEST(ScheduleCacheTest, BytesAreTheSumOverHeldEntries) {
  // Capacity 2. The running sum must equal the held entries'
  // footprints after inserts and evictions; a compilation in flight
  // holds nothing.
  ScheduleCache cache(2);
  put(cache, key_of(1, "A"), entry_with_bytes(100));
  put(cache, key_of(2, "B"), entry_with_bytes(250));
  EXPECT_EQ(cache.stats().bytes, 350);
  EXPECT_NE(cached(cache, key_of(1, "A")), nullptr);  // A is MRU
  ASSERT_TRUE(cache.claim(key_of(3, "C")).leader());
  EXPECT_EQ(cache.stats().bytes, 350);
  cache.publish(key_of(3, "C"), entry_with_bytes(1000));  // evicts B
  EXPECT_EQ(cache.stats().bytes, 1100);
  put(cache, key_of(4, "D"), entry_with_bytes(7));  // evicts A
  EXPECT_EQ(cache.stats().evictions, 2);
  std::int64_t held = 0;
  for (const CacheKey& key : {key_of(1, "A"), key_of(2, "B"), key_of(3, "C"),
                              key_of(4, "D")}) {
    if (const CompiledEntryPtr entry = cached(cache, key)) {
      held += entry->footprint_bytes;
    }
  }
  EXPECT_EQ(held, 1007);
  EXPECT_EQ(cache.stats().bytes, held);
}

TEST(ScheduleCacheTest, WaitersGetTheLeadersEntry) {
  ScheduleCache cache(4);
  const CacheKey key = key_of(5, "E");
  ASSERT_TRUE(cache.claim(key).leader());
  ScheduleCache::Claim first = cache.claim(key);
  ScheduleCache::Claim second = cache.claim(key);
  ASSERT_TRUE(first.pending.valid());
  ASSERT_TRUE(second.pending.valid());
  EXPECT_EQ(first.entry, nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  const CompiledEntryPtr entry = entry_with_bytes(9);
  cache.publish(key, entry);
  EXPECT_EQ(first.pending.get(), entry);
  EXPECT_EQ(second.pending.get(), entry);
  EXPECT_EQ(cached(cache, key), entry);
}

TEST(ScheduleCacheTest, WaitersRethrowAndAFailedKeyCompilesAfresh) {
  ScheduleCache cache(4);
  const CacheKey key = key_of(6, "F");
  ASSERT_TRUE(cache.claim(key).leader());
  ScheduleCache::Claim waiter = cache.claim(key);
  ASSERT_TRUE(waiter.pending.valid());
  cache.fail(key, std::make_exception_ptr(std::runtime_error("boom")));
  try {
    waiter.pending.get();
    FAIL() << "the waiter must rethrow the leader's error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().insertions, 0);
  // The failure is not cached: the next claim leads a new compilation.
  ASSERT_TRUE(cache.claim(key).leader());
  const CompiledEntryPtr entry = entry_with_bytes(3);
  cache.publish(key, entry);
  EXPECT_EQ(cached(cache, key), entry);
}

TEST(ScheduleCacheTest, ServiceExportsTheHeldBytes) {
  // Three distinct topologies through a two-entry cache: the gauge is
  // the footprint of the two entries still held, each measured when
  // it was built.
  ServiceOptions options;
  options.cache_capacity = 2;
  options.compiler_threads = 1;
  ScheduleService service(options);
  std::vector<CompiledEntryPtr> served;
  for (const topology::Topology& topo :
       {topology::make_paper_figure1(), topology::make_single_switch(5),
        topology::make_single_switch(7)}) {
    const CompiledRoutine routine = service.compile(topo, 8 * 1024);
    ASSERT_FALSE(routine.cache_hit);
    EXPECT_GT(routine.entry->footprint_bytes, 0);
    EXPECT_EQ(routine.entry->footprint_bytes,
              measure_footprint(*routine.entry));
    served.push_back(routine.entry);
    const std::size_t held = std::min<std::size_t>(served.size(), 2);
    std::int64_t expected = 0;
    for (std::size_t i = served.size() - held; i < served.size(); ++i) {
      expected += served[i]->footprint_bytes;
    }
    EXPECT_EQ(service.metrics_snapshot().value("aapc_service_cache_bytes"),
              static_cast<double>(expected))
        << "after " << served.size() << " compiles";
  }
}

TEST(ScheduleCacheTest, ConcurrentMixedAccess) {
  // Hammer one cache from several threads, each leading, waiting on or
  // hitting 96 keys through a 64-entry budget: every claim ends in the
  // entry published for its key (run under TSan in CI).
  ScheduleCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::int64_t> hits(kThreads, 0);
  std::vector<std::int64_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, &wrong, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (t * 31 + i) % 96;
        const CacheKey key = key_of(static_cast<std::uint64_t>(k % 8),
                                    "F" + std::to_string(k));
        ScheduleCache::Claim claim = cache.claim(key);
        CompiledEntryPtr entry = claim.entry;
        if (claim.leader()) {
          entry = entry_with_bytes(k);
          cache.publish(key, entry);
        } else if (entry == nullptr) {
          entry = claim.pending.get();
        } else {
          ++hits[static_cast<std::size_t>(t)];
        }
        if (entry->footprint_bytes != k) ++wrong[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.stats().entries, 64);
  std::int64_t total_hits = 0;
  for (const std::int64_t h : hits) total_hits += h;
  EXPECT_GT(total_hits, 0);
  for (const std::int64_t w : wrong) EXPECT_EQ(w, 0);
}

}  // namespace
}  // namespace aapc::service
