// Sharded LRU schedule-cache unit tests: hits and misses, LRU eviction
// order, collision guarding, and concurrent access.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapc/service/schedule_cache.hpp"

namespace aapc::service {
namespace {

CompiledEntryPtr entry_with_form(const std::string& form) {
  auto entry = std::make_shared<CompiledEntry>();
  entry->canonical_form = form;
  return entry;
}

CacheKey key_of(std::uint64_t hash, std::uint32_t size_class = 16) {
  return CacheKey{hash, size_class, 0};
}

TEST(ScheduleCacheTest, MissThenHit) {
  ScheduleCache cache(8, 2);
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
  ScheduleCache cache(8, 1);
  cache.put(key_of(1, 10), entry_with_form("A"));
  EXPECT_EQ(cache.get(key_of(1, 11), "A"), nullptr);
  EXPECT_NE(cache.get(key_of(1, 10), "A"), nullptr);
}

TEST(ScheduleCacheTest, HashCollisionGuard) {
  // Same key, different canonical form: the cache must refuse to serve
  // the wrong topology's artifact.
  ScheduleCache cache(8, 1);
  cache.put(key_of(42), entry_with_form("A"));
  EXPECT_EQ(cache.get(key_of(42), "B"), nullptr);
  EXPECT_NE(cache.get(key_of(42), "A"), nullptr);
}

TEST(ScheduleCacheTest, LruEvictionOrder) {
  // Single shard, capacity 2: inserting a third entry evicts the least
  // recently used, and a get() refreshes recency.
  ScheduleCache cache(2, 1);
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
  ScheduleCache cache(4, 1);
  cache.put(key_of(1), entry_with_form("A"));
  cache.put(key_of(1), entry_with_form("A2"));
  EXPECT_EQ(cache.stats().entries, 1);
  const CompiledEntryPtr hit = cache.get(key_of(1), "A2");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->canonical_form, "A2");
}

TEST(ScheduleCacheTest, EvictionDoesNotInvalidateServedEntries) {
  ScheduleCache cache(1, 1);
  cache.put(key_of(1), entry_with_form("A"));
  const CompiledEntryPtr held = cache.get(key_of(1), "A");
  cache.put(key_of(2), entry_with_form("B"));  // evicts A
  EXPECT_EQ(cache.get(key_of(1), "A"), nullptr);
  // The shared_ptr handed out earlier stays valid.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->canonical_form, "A");
}

TEST(ScheduleCacheTest, ShardCountClampedToCapacity) {
  ScheduleCache cache(2, 16);
  EXPECT_EQ(cache.shard_count(), 2u);
}

TEST(ScheduleCacheTest, ConcurrentMixedAccess) {
  // Hammer one cache from several threads: correctness here is "no
  // crash, no lost entries beyond capacity, some lookups hit" (run under
  // TSan in CI).
  ScheduleCache cache(64, 8);
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
