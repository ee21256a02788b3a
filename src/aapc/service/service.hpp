// Schedule-compilation service.
//
// The paper's §5 routine generator is a one-shot tool: topology in,
// customized MPI_Alltoall out, recompiled from scratch per invocation.
// This service turns it into an amortizing, concurrency-safe pipeline:
//
//   request (topology, msize)
//     -> canonicalize            relabeling-invariant identity + rank
//                                permutation (service/canonical.hpp)
//     -> claim the exact key     hit: hand out the cached canonical
//                                entry and the caller's permutation;
//                                a compilation in flight: wait on it,
//                                so N concurrent misses on one key
//                                compile once (service/schedule_cache.hpp)
//     -> compile                 on the leader's own thread; assign and
//                                verify borrow idle compiler-pool
//                                workers; then publish to the cache
//
// Compiled artifacts live in canonical rank labeling and are immutable.
// A response maps the shared schedule through the caller's rank
// permutation, which preserves contention-freeness because the
// permutation comes from a tree isomorphism: netd writes the JSON
// through it (ScheduleService::lookup), in-process callers get a
// relabeled copy (compile, core::relabel_schedule). The lowered programs
// are rewritten only for a caller that asks
// (CompiledRoutine::caller_programs). See docs/SERVICE.md for the
// architecture, cache-key definition, and where backpressure lives.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/obs/metrics.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/service/compiler_pool.hpp"
#include "aapc/service/epochs.hpp"
#include "aapc/service/schedule_cache.hpp"

namespace aapc::service {

struct ServiceOptions {
  /// Cached entries held before the least recently used is evicted.
  std::size_t cache_capacity = 256;
  /// Pool workers lent to a compilation's assign and verify passes;
  /// the compilation itself runs on the requesting thread.
  std::int32_t compiler_threads = 4;
};

/// The canonical artifact that serves one request, with the permutation
/// that labels it for the caller. Nothing is rewritten yet: netd writes
/// the response straight from entry->schedule through the permutation.
struct ServedEntry {
  /// The shared canonical artifact (schedule and lowered programs).
  CompiledEntryPtr entry;
  /// caller rank -> canonical rank (entry->schedule labeling).
  std::vector<topology::Rank> to_canonical;
  /// Served straight from the cache (no compilation waited on).
  bool cache_hit = false;
  /// Waited on a compilation started by a concurrent request.
  bool coalesced = false;
  /// Always false: link events mark no entry, so no answer is stale.
  /// Kept for callers that read it; the wire's stale byte is always 0.
  bool stale = false;
  /// Global topology epoch at serve time (see service/epochs.hpp).
  std::uint64_t epoch = 0;
};

/// A served routine, rewritten into the caller's rank labeling.
struct CompiledRoutine : ServedEntry {
  /// Phase schedule in the caller's ranks.
  core::Schedule schedule;

  /// The lowered per-rank programs in the caller's ranks, rewritten
  /// from entry->programs on each call (O(ops)). The service itself
  /// never calls this: serving a schedule needs no programs.
  mpisim::ProgramSet caller_programs() const;
};

class ScheduleService {
 public:
  explicit ScheduleService(const ServiceOptions& options = {});

  ScheduleService(const ScheduleService&) = delete;
  ScheduleService& operator=(const ScheduleService&) = delete;

  /// Compiles (or serves from cache) the AAPC routine for `topo` at
  /// message size `msize`, blocking until the artifact is available.
  /// A miss compiles on the calling thread unless a concurrent request
  /// is already compiling the key; compilation errors are rethrown
  /// verbatim.
  CompiledRoutine compile(const topology::Topology& topo, Bytes msize);

  /// Same, reusing a canonicalization the caller already computed, so
  /// the service does not repeat the AHU encoding (the netd front-end
  /// canonicalizes once and passes the result to lookup()). `canon`
  /// must be canonicalize(topo) for this exact `topo`.
  CompiledRoutine compile(const topology::Topology& topo, Bytes msize,
                          const Canonicalization& canon);

  /// Compiles a routine of an explicit collective kind. `neighbors`
  /// (caller ranks) is required non-trivial only for kSparseAlltoall
  /// and must be empty for every other kind; it is normalized and
  /// relabeled into canonical ranks before keying, so isomorphic
  /// sparse requests share a cache entry.
  CompiledRoutine compile(const topology::Topology& topo, Bytes msize,
                          core::CollectiveKind kind,
                          const core::SparseNeighbors& neighbors = {});
  CompiledRoutine compile(const topology::Topology& topo, Bytes msize,
                          const Canonicalization& canon,
                          core::CollectiveKind kind,
                          const core::SparseNeighbors& neighbors = {});

  /// The request path under compile(): a cache claim, then a wait on
  /// the compilation in flight or a compilation of its own, with the
  /// same throws. Returns the
  /// canonical entry and the caller's permutation without rewriting the
  /// schedule; compile() adds that rewrite for in-process callers that
  /// read CompiledRoutine::schedule.
  ServedEntry lookup(const topology::Topology& topo, Bytes msize,
                     const Canonicalization& canon, core::CollectiveKind kind,
                     const core::SparseNeighbors& neighbors = {});

  /// Snapshot of every aapc_service_* series, with the cache/pool
  /// mirrors freshly synced. Read series with value/total/find, or feed
  /// it to obs::to_json (the aapc_serviced --metrics-out path).
  obs::RegistrySnapshot metrics_snapshot() const;

  /// Message sizes are bucketed into power-of-two classes: class c
  /// covers (2^(c-1), 2^c] bytes and compiles at the representative
  /// size 2^c, so near-equal sizes share one cache entry. Class 0 is
  /// exactly 1 byte; the largest class is 62 (2^62 bytes — larger
  /// requests are rejected up front with InvalidArgument).
  static std::uint32_t size_class(Bytes msize);
  static Bytes size_class_bytes(std::uint32_t size_class);

  /// The cache key `compile` uses for a request (exposed for tests).
  /// `canonical_neighbors` are the normalized neighbor sets in
  /// canonical ranks, empty for every kind but sparse_alltoall.
  static CacheKey cache_key(const Canonicalization& canon, Bytes msize,
                            core::CollectiveKind kind,
                            core::SparseNeighbors canonical_neighbors);

  /// The topology-epoch feed. The front-end binds canonical hashes to
  /// physical links here and forwards link events; every answer carries
  /// the feed's epoch at lookup time.
  TopologyEpochs& epochs() { return epochs_; }
  const TopologyEpochs& epochs() const { return epochs_; }

 private:
  CompiledEntryPtr compile_entry(const CacheKey& key);
  ServedEntry finish(const Canonicalization& canon, CompiledEntryPtr entry,
                     bool cache_hit, bool coalesced,
                     std::uint64_t epoch) const;
  /// Mirrors the cache/pool counters (owned by those components) into
  /// the registry so snapshots carry every service series.
  void sync_mirrors() const;

  ScheduleCache cache_;

  /// Link-churn feed.
  TopologyEpochs epochs_;

  /// Source of truth for every aapc_service_* series. mutable: reads
  /// (metrics_snapshot) sync mirror series, which registers them on
  /// first use. Declared before the instrument references below.
  mutable obs::Registry registry_;
  /// aapc_service_requests_total{kind=...}, one series per collective
  /// kind, indexed by the kind's wire byte. Registered in the
  /// constructor body (the registry hands out stable references).
  std::array<obs::Counter*, 4> requests_{};
  /// One of these two per request past validation, so hits + misses
  /// equals requests: a hit found the key cached, a miss compiled it
  /// (the leader) or waited on the leader's compilation.
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& coalesced_waits_;
  obs::Histogram& compile_seconds_;
  /// Per-stage compile-time breakdown (decompose -> assign -> sync ->
  /// lower) plus the size of the topology last compiled; exported with
  /// every snapshot so `aapc_serviced --metrics-out` shows where
  /// compilation time goes at each cluster size.
  obs::Histogram& stage_decompose_seconds_;
  obs::Histogram& stage_assign_seconds_;
  obs::Histogram& stage_verify_seconds_;
  obs::Histogram& stage_sync_seconds_;
  obs::Histogram& stage_lower_seconds_;
  obs::Gauge& compile_ranks_;

  /// Idle workers lent to compile_entry's assign and verify batches.
  CompilerPool pool_;
};

}  // namespace aapc::service
