// LRU schedule-cache unit tests: hits and misses, LRU eviction
// order, collision guarding, byte accounting, and concurrent access.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aapc/service/schedule_cache.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::service {
namespace {

CompiledEntryPtr entry_with_form(const std::string& form) {
  auto entry = std::make_shared<CompiledEntry>();
  entry->canonical_form = form;
  return entry;
}

CacheKey key_of(std::uint64_t hash, std::uint32_t size_class = 16) {
  return CacheKey{hash, size_class};
}

TEST(ScheduleCacheTest, MissThenHit) {
  ScheduleCache cache(8);
  EXPECT_EQ(cache.get(key_of(1), "A"), nullptr);
  cache.put(key_of(1), entry_with_form("A"));
  const CompiledEntryPtr hit = cache.get(key_of(1), "A");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->canonical_form, "A");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(ScheduleCacheTest, DistinctSizeClassesAreDistinctEntries) {
  ScheduleCache cache(8);
  cache.put(key_of(1, 10), entry_with_form("A"));
  EXPECT_EQ(cache.get(key_of(1, 11), "A"), nullptr);
  EXPECT_NE(cache.get(key_of(1, 10), "A"), nullptr);
}

TEST(ScheduleCacheTest, HashCollisionGuard) {
  // Same key, different canonical form: the cache must refuse to serve
  // the wrong topology's artifact.
  ScheduleCache cache(8);
  cache.put(key_of(42), entry_with_form("A"));
  EXPECT_EQ(cache.get(key_of(42), "B"), nullptr);
  EXPECT_NE(cache.get(key_of(42), "A"), nullptr);
}

TEST(ScheduleCacheTest, LruEvictionOrder) {
  // Capacity 2: inserting a third entry evicts the least
  // recently used, and a get() refreshes recency.
  ScheduleCache cache(2);
  cache.put(key_of(1), entry_with_form("A"));
  cache.put(key_of(2), entry_with_form("B"));
  EXPECT_NE(cache.get(key_of(1), "A"), nullptr);  // A is now MRU
  cache.put(key_of(3), entry_with_form("C"));     // evicts B
  EXPECT_EQ(cache.get(key_of(2), "B"), nullptr);
  EXPECT_NE(cache.get(key_of(1), "A"), nullptr);
  EXPECT_NE(cache.get(key_of(3), "C"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(ScheduleCacheTest, ReplaceKeepsEntryCount) {
  ScheduleCache cache(4);
  cache.put(key_of(1), entry_with_form("A"));
  cache.put(key_of(1), entry_with_form("A2"));
  EXPECT_EQ(cache.stats().entries, 1);
  const CompiledEntryPtr hit = cache.get(key_of(1), "A2");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->canonical_form, "A2");
}

TEST(ScheduleCacheTest, EvictionDoesNotInvalidateServedEntries) {
  ScheduleCache cache(1);
  cache.put(key_of(1), entry_with_form("A"));
  const CompiledEntryPtr held = cache.get(key_of(1), "A");
  cache.put(key_of(2), entry_with_form("B"));  // evicts A
  EXPECT_EQ(cache.get(key_of(1), "A"), nullptr);
  // The shared_ptr handed out earlier stays valid.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->canonical_form, "A");
}

CompiledEntryPtr entry_with_bytes(const std::string& form,
                                  std::int64_t bytes) {
  auto entry = std::make_shared<CompiledEntry>();
  entry->canonical_form = form;
  entry->footprint_bytes = bytes;
  return entry;
}

TEST(ScheduleCacheTest, BytesAreTheSumOverHeldEntries) {
  // Capacity 2. The running sum must equal the held
  // entries' footprints after inserts, a replacement and evictions.
  ScheduleCache cache(2);
  cache.put(key_of(1), entry_with_bytes("A", 100));
  cache.put(key_of(2), entry_with_bytes("B", 250));
  EXPECT_EQ(cache.stats().bytes, 350);
  cache.put(key_of(1), entry_with_bytes("A2", 40));  // replace; A2 is MRU
  EXPECT_EQ(cache.stats().bytes, 290);
  cache.put(key_of(3), entry_with_bytes("C", 1000));  // evicts B
  EXPECT_EQ(cache.stats().bytes, 1040);
  cache.put(key_of(4), entry_with_bytes("D", 7));  // evicts A2
  EXPECT_EQ(cache.stats().evictions, 2);
  std::int64_t held = 0;
  for (const auto& [hash, form] :
       std::vector<std::pair<std::uint64_t, std::string>>{
           {1, "A2"}, {2, "B"}, {3, "C"}, {4, "D"}}) {
    if (const CompiledEntryPtr entry = cache.get(key_of(hash), form)) {
      held += entry->footprint_bytes;
    }
  }
  EXPECT_EQ(held, 1007);
  EXPECT_EQ(cache.stats().bytes, held);
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
  // Hammer one cache from several threads: correctness here is "no
  // crash, no lost entries beyond capacity, some lookups hit" (run under
  // TSan in CI).
  ScheduleCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::int64_t> hits(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto hash = static_cast<std::uint64_t>((t * 31 + i) % 96);
        const std::string form = "F" + std::to_string(hash);
        const CompiledEntryPtr hit = cache.get(key_of(hash), form);
        if (hit == nullptr) {
          cache.put(key_of(hash), entry_with_form(form));
        } else {
          EXPECT_EQ(hit->canonical_form, form);
          ++hits[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.stats().entries, 64);
  std::int64_t total_hits = 0;
  for (const std::int64_t h : hits) total_hits += h;
  EXPECT_GT(total_hits, 0);
}

}  // namespace
}  // namespace aapc::service
