#include "aapc/service/schedule_cache.hpp"

#include <utility>

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

ScheduleCache::Claim ScheduleCache::claim(const CacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = slots_.try_emplace(key);
  Slot& slot = it->second;
  if (inserted) {
    slot.pending = slot.done.get_future().share();
    return {};
  }
  if (slot.entry == nullptr) return {nullptr, slot.pending};
  lru_.splice(lru_.begin(), lru_, slot.lru);
  return {slot.entry, {}};
}

void ScheduleCache::publish(const CacheKey& key, CompiledEntryPtr entry) {
  AAPC_REQUIRE(entry != nullptr, "cache cannot store a null entry");
  std::promise<CompiledEntryPtr> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    AAPC_CHECK_MSG(it != slots_.end() && it->second.entry == nullptr,
                   "publish of a key that is not being compiled");
    // The one allocation comes first: if it throws, the key is still
    // claimed and the leader's fail() releases its waiters.
    lru_.push_front(&it->first);
    Slot& slot = it->second;
    slot.lru = lru_.begin();
    slot.entry = entry;
    done = std::move(slot.done);
    slot.pending = {};
    bytes_ += entry->footprint_bytes;
    ++insertions_;
    while (lru_.size() > capacity_) {
      const auto victim = slots_.find(*lru_.back());
      bytes_ -= victim->second.entry->footprint_bytes;
      lru_.pop_back();
      slots_.erase(victim);
      ++evictions_;
    }
  }
  done.set_value(std::move(entry));
}

void ScheduleCache::fail(const CacheKey& key, std::exception_ptr error) {
  std::promise<CompiledEntryPtr> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    AAPC_CHECK_MSG(it != slots_.end() && it->second.entry == nullptr,
                   "fail of a key that is not being compiled");
    done = std::move(it->second.done);
    slots_.erase(it);
  }
  done.set_exception(std::move(error));
}

CacheStats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{insertions_, evictions_,
                    static_cast<std::int64_t>(lru_.size()), bytes_};
}

}  // namespace aapc::service
