// LRU cache of compiled schedules.
//
// The unit of caching is one *canonical* compilation: the phase schedule
// and the lowered per-rank programs produced for a canonical topology
// (service/canonical.hpp) at one message-size class. Entries are
// immutable and shared
// (shared_ptr<const CompiledEntry>), so a hit hands out the artifact
// without copying and eviction never invalidates a routine already
// served.
//
// One LRU list under one mutex: a lookup holds the lock only for a hash
// probe, a form compare and a list splice, and eviction order is exact
// LRU over the whole capacity.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "aapc/common/units.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::service {

/// Cache key: canonical topology identity + message-size class +
/// collective kind (+ the sparse pattern digest for sparse_alltoall).
/// Two requests with equal keys are served by one compiled artifact;
/// distinct kinds on the same topology must never alias — without
/// `kind` in the key an allgather request would be served a cached
/// alltoall schedule.
struct CacheKey {
  std::uint64_t topology_hash = 0;
  std::uint32_t size_class = 0;
  /// core::CollectiveKind as its wire byte (after the first two fields,
  /// so a two-field aggregate initializer means alltoall).
  std::uint8_t kind = 0;
  /// core::sparse_pattern_hash of the canonically-relabeled neighbor
  /// sets; 0 for every non-sparse kind.
  std::uint64_t pattern_hash = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    // splitmix64 finalizer over the fields packed into one word
    // stream; topology_hash already avalanches, the mix spreads the
    // low-entropy class/kind fields.
    std::uint64_t h = key.topology_hash ^
                      (static_cast<std::uint64_t>(key.size_class) << 32) ^
                      (static_cast<std::uint64_t>(key.kind) << 56) ^
                      (key.pattern_hash * 0x9e3779b97f4a7c15ull);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// One compiled schedule in canonical rank labeling. Immutable once
/// published to the cache.
struct CompiledEntry {
  /// Canonical form the entry was compiled for — compared on every hit,
  /// so a 64-bit hash collision degrades to a miss instead of serving a
  /// schedule for the wrong topology.
  std::string canonical_form;
  /// The canonical topology (reconstructed from the form).
  topology::Topology canonical_topo;
  /// Phase schedule in canonical ranks.
  core::Schedule schedule;
  /// Lowered per-rank programs at `class_bytes`, canonical ranks.
  mpisim::ProgramSet programs;
  /// Representative message size of the entry's size class.
  Bytes class_bytes = 0;
  /// The collective the entry realizes (mirrors schedule.kind; also
  /// compared on hits so a key collision across kinds is a miss).
  core::CollectiveKind kind = core::CollectiveKind::kAlltoall;
  /// Normalized neighbor sets in canonical ranks (sparse_alltoall
  /// only); compared on hits like canonical_form so a pattern-hash
  /// collision degrades to a miss.
  core::SparseNeighbors neighbors;
  /// Bytes the entry holds (measure_footprint below), recorded once when
  /// it is built; the cache sums it over the entries it holds.
  std::int64_t footprint_bytes = 0;
};

/// What an entry's bulk costs, by capacity: the schedule arena, its
/// phase offsets, every rank's op vector and the pair table.
std::int64_t measure_footprint(const CompiledEntry& entry);

using CompiledEntryPtr = std::shared_ptr<const CompiledEntry>;

/// Cache counters. Hits and misses are the service's to count.
struct CacheStats {
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t entries = 0;  // current
  /// Sum of footprint_bytes over the held entries (current).
  std::int64_t bytes = 0;
};

class ScheduleCache {
 public:
  /// `capacity` is the entry budget.
  explicit ScheduleCache(std::size_t capacity);

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Returns the entry for `key` (promoting it to most-recently-used)
  /// or nullptr. `canonical_form` guards against hash collisions: an
  /// entry whose stored form differs is not returned. `neighbors`,
  /// when non-null, extends the guard to the sparse pattern (a
  /// pattern-hash collision is a miss, never a wrong schedule).
  CompiledEntryPtr get(const CacheKey& key, const std::string& canonical_form,
                       const core::SparseNeighbors* neighbors = nullptr);

  /// Inserts (or replaces) the entry for `key`, evicting the
  /// least-recently-used entry when over budget.
  void put(const CacheKey& key, CompiledEntryPtr entry);

  CacheStats stats() const;

 private:
  using Lru = std::list<std::pair<CacheKey, CompiledEntryPtr>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  Lru lru_;
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> index_;
  std::int64_t insertions_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace aapc::service
