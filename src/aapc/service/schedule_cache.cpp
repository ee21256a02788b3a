#include "aapc/service/schedule_cache.hpp"

#include <algorithm>

#include "aapc/common/error.hpp"

namespace aapc::service {

std::int64_t measure_footprint(const CompiledEntry& entry) {
  std::size_t bytes =
      entry.schedule.messages.capacity() * sizeof(core::Message) +
      entry.schedule.phase_begin.capacity() * sizeof(std::int64_t) +
      entry.programs.pair_bytes.capacity() * sizeof(Bytes);
  for (const mpisim::Program& program : entry.programs.programs) {
    bytes += program.ops.capacity() * sizeof(mpisim::Op);
  }
  return static_cast<std::int64_t>(bytes);
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::size_t shards) {
  AAPC_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
  AAPC_REQUIRE(shards >= 1, "cache must have >= 1 shard");
  shards = std::min(shards, capacity);  // no zero-capacity shards
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScheduleCache::Shard& ScheduleCache::shard_for(const CacheKey& key) {
  return *shards_[CacheKeyHash{}(key) % shards_.size()];
}

CompiledEntryPtr ScheduleCache::get(const CacheKey& key,
                                    const std::string& canonical_form,
                                    const core::SparseNeighbors* neighbors) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end() ||
      it->second->second->canonical_form != canonical_form ||
      it->second->second->kind != static_cast<core::CollectiveKind>(key.kind) ||
      (neighbors != nullptr && it->second->second->neighbors != *neighbors)) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ScheduleCache::put(const CacheKey& key, CompiledEntryPtr entry) {
  AAPC_REQUIRE(entry != nullptr, "cache cannot store a null entry");
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (a revalidation publishes a fresh entry under a
    // key the cache already holds); keep MRU position.
    shard.bytes +=
        entry->footprint_bytes - it->second->second->footprint_bytes;
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.bytes += entry->footprint_bytes;
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  ++shard.insertions;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.bytes -= shard.lru.back().second->footprint_bytes;
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats ScheduleCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.entries += static_cast<std::int64_t>(shard->lru.size());
    total.bytes += shard->bytes;
  }
  return total;
}

}  // namespace aapc::service
