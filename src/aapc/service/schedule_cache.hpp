// LRU cache of compiled schedules, and the compilations in flight.
//
// The unit of caching is one *canonical* compilation: the phase schedule
// and the lowered per-rank programs produced for a canonical topology
// (service/canonical.hpp) at one message-size class. Entries are
// immutable and shared
// (shared_ptr<const CompiledEntry>), so a hit hands out the artifact
// without copying and eviction never invalidates a routine already
// served.
//
// The cache decides which entry answers a request, and it owns that
// answer from the first miss to its publication: claim() returns the
// cached entry, the compilation in flight to wait on, or leadership, and
// the leader ends with publish() or fail(). Entries and compilations in
// flight share one map under one mutex; eviction order is exact LRU over
// the published entries.
#pragma once

#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "aapc/common/units.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::service {

/// An answer's exact identity: two requests with equal keys are served
/// by one compiled artifact, and two with different keys never are.
/// Distinct kinds on the same topology never alias, nor do distinct
/// sparse patterns, nor distinct trees whose hashes collide.
struct CacheKey {
  /// canonical_hash(canonical_form) and core::sparse_pattern_hash
  /// (neighbors), 0 for the other kinds: they pick the bucket, and they
  /// come first so that the defaulted equality rejects most unequal
  /// keys without comparing the form. The fields after them decide
  /// equality.
  std::uint64_t topology_hash = 0;
  std::uint64_t pattern_hash = 0;
  std::uint32_t size_class = 0;
  core::CollectiveKind kind = core::CollectiveKind::kAlltoall;
  /// AHU form of the canonical topology (Canonicalization).
  std::string canonical_form;
  /// Normalized neighbor sets in canonical ranks (sparse_alltoall only;
  /// empty for every other kind).
  core::SparseNeighbors neighbors;

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
  /// The canonical topology (reconstructed from the key's form).
  topology::Topology canonical_topo;
  /// Phase schedule in canonical ranks.
  core::Schedule schedule;
  /// Lowered per-rank programs at `class_bytes`, canonical ranks.
  mpisim::ProgramSet programs;
  /// Representative message size of the entry's size class.
  Bytes class_bytes = 0;
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
  /// What claim() found for a key: the cached entry, the compilation in
  /// flight, or neither, in which case the caller leads.
  struct Claim {
    /// The cached entry (a hit, promoted to most recently used).
    CompiledEntryPtr entry;
    /// Valid when another caller compiles the key: get() returns the
    /// entry it publishes or rethrows the error it fails with.
    std::shared_future<CompiledEntryPtr> pending;

    /// The caller compiles the key and must end with publish() or
    /// fail(); until then every claim of the key waits on it.
    bool leader() const { return entry == nullptr && !pending.valid(); }
  };

  /// `capacity` is the entry budget.
  explicit ScheduleCache(std::size_t capacity);

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  Claim claim(const CacheKey& key);

  /// Caches the leader's entry for `key`, evicting the least recently
  /// used entries over budget, then hands it to every waiter.
  void publish(const CacheKey& key, CompiledEntryPtr entry);

  /// Forgets the leader's claim on `key` and rethrows `error` to every
  /// waiter; the next claim of the key compiles afresh.
  void fail(const CacheKey& key, std::exception_ptr error);

  CacheStats stats() const;

 private:
  /// Front = most recently used; points at the keys of `slots_`, whose
  /// nodes do not move.
  using Lru = std::list<const CacheKey*>;

  /// A published entry (entry set, `lru` valid) or a compilation in
  /// flight (entry null; `done` resolves its waiters).
  struct Slot {
    CompiledEntryPtr entry;
    Lru::iterator lru;
    std::promise<CompiledEntryPtr> done;
    std::shared_future<CompiledEntryPtr> pending;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<CacheKey, Slot, CacheKeyHash> slots_;
  Lru lru_;
  std::int64_t insertions_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace aapc::service
