#include "aapc/service/schedule_cache.hpp"

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

ScheduleCache::ScheduleCache(std::size_t capacity) : capacity_(capacity) {
  AAPC_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
}

CompiledEntryPtr ScheduleCache::get(const CacheKey& key,
                                    const std::string& canonical_form,
                                    const core::SparseNeighbors* neighbors) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() ||
      it->second->second->canonical_form != canonical_form ||
      it->second->second->kind != static_cast<core::CollectiveKind>(key.kind) ||
      (neighbors != nullptr && it->second->second->neighbors != *neighbors)) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ScheduleCache::put(const CacheKey& key, CompiledEntryPtr entry) {
  AAPC_REQUIRE(entry != nullptr, "cache cannot store a null entry");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place (a second put of a key the cache already holds);
    // keep MRU position.
    bytes_ += entry->footprint_bytes - it->second->second->footprint_bytes;
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  bytes_ += entry->footprint_bytes;
  lru_.emplace_front(key, std::move(entry));
  index_.emplace(key, lru_.begin());
  ++insertions_;
  while (lru_.size() > capacity_) {
    bytes_ -= lru_.back().second->footprint_bytes;
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{insertions_, evictions_,
                    static_cast<std::int64_t>(lru_.size()), bytes_};
}

}  // namespace aapc::service
