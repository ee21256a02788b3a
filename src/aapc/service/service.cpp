#include "aapc/service/service.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "aapc/common/error.hpp"
#include "aapc/common/log.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/sync/sync_plan.hpp"

namespace aapc::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string format_seconds(double seconds) {
  std::ostringstream os;
  if (seconds >= 1.0) {
    os << seconds << " s";
  } else if (seconds >= 1e-3) {
    os << seconds * 1e3 << " ms";
  } else {
    os << seconds * 1e6 << " us";
  }
  return os.str();
}

}  // namespace

mpisim::ProgramSet CompiledRoutine::caller_programs() const {
  return mpisim::relabel_program_set(entry->programs,
                                     core::invert_permutation(to_canonical));
}

std::uint32_t ScheduleService::size_class(Bytes msize) {
  AAPC_REQUIRE(msize >= 1, "message size must be >= 1 byte");
  // Reject the upper bound here, at request entry: without this, a
  // msize above 2^62 passes validation only to blow up in
  // size_class_bytes (and the shift below would overflow first).
  AAPC_REQUIRE(msize <= (Bytes{1} << 62),
               "message size " << msize
                               << " B exceeds the largest size class (2^62 "
                                  "B); requests this large are unservable");
  std::uint32_t cls = 0;
  while ((Bytes{1} << cls) < msize) ++cls;
  return cls;
}

Bytes ScheduleService::size_class_bytes(std::uint32_t size_class) {
  AAPC_REQUIRE(size_class < 63, "size class " << size_class << " out of range");
  return Bytes{1} << size_class;
}

ScheduleService::ScheduleService(const ServiceOptions& options)
    : cache_(options.cache_capacity),
      cache_hits_(registry_.counter("aapc_service_cache_hits_total",
                                    "Requests served from the schedule cache")),
      cache_misses_(registry_.counter(
          "aapc_service_cache_misses_total",
          "Requests whose key was absent from the cache")),
      coalesced_waits_(registry_.counter(
          "aapc_service_coalesced_waits_total",
          "Requests that waited on a concurrent compilation of their key")),
      compile_seconds_(registry_.histogram(
          "aapc_service_compile_seconds",
          "End-to-end compilation latency of one canonical artifact")),
      stage_decompose_seconds_(registry_.histogram(
          "aapc_service_stage_decompose_seconds",
          "Wall time of the decomposition stage (root + subtrees)")),
      stage_assign_seconds_(registry_.histogram(
          "aapc_service_stage_assign_seconds",
          "Wall time of the message-assignment stage (Figure 4)")),
      stage_verify_seconds_(registry_.histogram(
          "aapc_service_stage_verify_seconds",
          "Wall time of verifying the compiled schedule")),
      stage_sync_seconds_(registry_.histogram(
          "aapc_service_stage_sync_seconds",
          "Wall time of synchronization-plan construction")),
      stage_lower_seconds_(registry_.histogram(
          "aapc_service_stage_lower_seconds",
          "Wall time of lowering to per-rank programs")),
      compile_ranks_(registry_.gauge(
          "aapc_service_compile_ranks",
          "Machine count of the most recently compiled topology")),
      // The queue holds only helper jobs, never more than the idle
      // workers, so a capacity of one slot per worker never binds.
      pool_(options.compiler_threads, options.compiler_threads) {
  for (std::uint8_t raw = 0; core::collective_kind_valid(raw); ++raw) {
    requests_[raw] = &registry_.counter(
        "aapc_service_requests_total", "Compile requests received",
        obs::Labels{{"kind", core::collective_kind_name(
                                 static_cast<core::CollectiveKind>(raw))}});
  }
}

CacheKey ScheduleService::cache_key(const Canonicalization& canon,
                                    Bytes msize, core::CollectiveKind kind,
                                    core::SparseNeighbors canonical_neighbors) {
  CacheKey key;
  key.topology_hash = canon.hash;
  if (kind == core::CollectiveKind::kSparseAlltoall) {
    key.pattern_hash = core::sparse_pattern_hash(canonical_neighbors);
  }
  key.size_class = size_class(msize);
  key.kind = kind;
  key.canonical_form = canon.canonical_form;
  key.neighbors = std::move(canonical_neighbors);
  return key;
}

CompiledEntryPtr ScheduleService::compile_entry(const CacheKey& key) {
  const Clock::time_point start = Clock::now();
  const core::CollectiveKind kind = key.kind;
  const core::SparseNeighbors& neighbors = key.neighbors;
  const Bytes class_bytes = size_class_bytes(key.size_class);
  auto entry = std::make_shared<CompiledEntry>();
  entry->canonical_topo = build_canonical_topology(key.canonical_form);
  entry->class_bytes = class_bytes;
  const topology::Topology& topo = entry->canonical_topo;
  compile_ranks_.set(static_cast<double>(topo.machine_count()));

  // Assignment and verification fan out to whatever pool workers are
  // idle; this thread participates, so saturation degrades to
  // sequential instead of deadlocking. The result is bit-identical
  // either way, so the runner is not part of the cache key.
  const core::TaskRunner runner =
      [this](const std::vector<core::Task>& tasks) { pool_.run_tasks(tasks); };
  Clock::time_point stage = Clock::now();
  if (kind == core::CollectiveKind::kAllgather) {
    entry->schedule = core::build_allgather_schedule(topo);
  } else if (kind == core::CollectiveKind::kReduceScatter) {
    entry->schedule = core::build_reduce_scatter_schedule(topo);
  } else if (kind == core::CollectiveKind::kSparseAlltoall) {
    entry->schedule = core::build_sparse_alltoall_schedule(topo, neighbors);
  } else if (topo.machine_count() >= 3) {
    const core::Decomposition dec = core::decompose(topo);
    stage_decompose_seconds_.observe(seconds_since(stage));
    stage = Clock::now();
    entry->schedule = core::assign_messages_hierarchical(
        dec, core::AssignmentOptions{}, runner);
  } else {
    // Degenerate sizes (|M| <= 2) have no decomposition; the whole
    // build is charged to the assign stage.
    entry->schedule = core::build_aapc_schedule(topo);
  }
  stage_assign_seconds_.observe(seconds_since(stage));

  stage = Clock::now();
  if (kind == core::CollectiveKind::kAlltoall) {
    const core::VerifyReport report =
        core::verify_schedule(topo, entry->schedule, {}, runner);
    AAPC_CHECK_MSG(report.ok, "compiled schedule failed verification:\n"
                                  << report.summary());
  } else {
    // Per-kind pattern coverage + contention freedom, with the
    // bandwidth-optimality bound enforced for the ring pipelines.
    const core::VerifyReport report = core::verify_collective_schedule(
        topo, entry->schedule, neighbors, runner);
    AAPC_CHECK_MSG(report.ok,
                   "compiled " << core::collective_kind_name(kind)
                               << " schedule failed verification:\n"
                               << report.summary());
  }
  stage_verify_seconds_.observe(seconds_since(stage));

  stage = Clock::now();
  // The plan is built here, outside the lowering, so the sync stage is
  // timed on its own. It is the plan the default lowering would build;
  // nothing reads it after the lowering, so the entry does not keep it.
  const sync::SyncPlan plan = sync::build_sync_plan(topo, entry->schedule, {});
  stage_sync_seconds_.observe(seconds_since(stage));

  stage = Clock::now();
  lowering::LoweringOptions lower_options;
  lower_options.precomputed_plan = &plan;
  entry->programs = lowering::lower_schedule(topo, entry->schedule,
                                             class_bytes, lower_options);
  stage_lower_seconds_.observe(seconds_since(stage));
  entry->footprint_bytes = measure_footprint(*entry);
  const double compile_seconds = seconds_since(start);
  compile_seconds_.observe(compile_seconds);
  AAPC_DEBUG("compiled canonical topology ("
             << entry->canonical_topo.machine_count() << " machines, class "
             << class_bytes << " B) in " << format_seconds(compile_seconds));
  return entry;
}

ServedEntry ScheduleService::finish(const Canonicalization& canon,
                                    CompiledEntryPtr entry, bool cache_hit,
                                    bool coalesced,
                                    std::uint64_t epoch) const {
  ServedEntry served;
  served.entry = std::move(entry);
  served.to_canonical = canon.to_canonical;
  served.cache_hit = cache_hit;
  served.coalesced = coalesced;
  served.epoch = epoch;
  return served;
}

CompiledRoutine ScheduleService::compile(const topology::Topology& topo,
                                         Bytes msize) {
  return compile(topo, msize, canonicalize(topo));
}

CompiledRoutine ScheduleService::compile(const topology::Topology& topo,
                                         Bytes msize,
                                         const Canonicalization& canon) {
  return compile(topo, msize, canon, core::CollectiveKind::kAlltoall, {});
}

CompiledRoutine ScheduleService::compile(
    const topology::Topology& topo, Bytes msize, core::CollectiveKind kind,
    const core::SparseNeighbors& neighbors) {
  return compile(topo, msize, canonicalize(topo), kind, neighbors);
}

CompiledRoutine ScheduleService::compile(
    const topology::Topology& topo, Bytes msize, const Canonicalization& canon,
    core::CollectiveKind kind, const core::SparseNeighbors& neighbors) {
  CompiledRoutine routine{lookup(topo, msize, canon, kind, neighbors), {}};
  routine.schedule = core::relabel_schedule(
      routine.entry->schedule, core::invert_permutation(routine.to_canonical));
  return routine;
}

ServedEntry ScheduleService::lookup(const topology::Topology& topo,
                                    Bytes msize, const Canonicalization& canon,
                                    core::CollectiveKind kind,
                                    const core::SparseNeighbors& neighbors) {
  AAPC_REQUIRE(static_cast<std::int32_t>(canon.to_canonical.size()) ==
                   topo.machine_count(),
               "canonicalization covers " << canon.to_canonical.size()
                                          << " ranks but the topology has "
                                          << topo.machine_count());
  // Neighbor sets are keyed, compiled, and cached in canonical rank
  // space so isomorphic sparse requests share one artifact; non-sparse
  // kinds must not smuggle a pattern in.
  core::SparseNeighbors canonical_neighbors;
  if (kind == core::CollectiveKind::kSparseAlltoall) {
    canonical_neighbors = core::relabel_neighbors(
        core::normalize_neighbors(topo.machine_count(), neighbors),
        canon.to_canonical);
  } else {
    AAPC_REQUIRE(neighbors.empty(),
                 "neighbor sets are only meaningful for sparse_alltoall, not "
                     << core::collective_kind_name(kind));
  }
  requests_[static_cast<std::size_t>(kind)]->inc();
  const CacheKey key =
      cache_key(canon, msize, kind, std::move(canonical_neighbors));
  const std::uint64_t epoch = epochs_.epoch();

  ScheduleCache::Claim claim = cache_.claim(key);
  if (claim.entry != nullptr) {
    cache_hits_.inc();
    return finish(canon, std::move(claim.entry), /*cache_hit=*/true,
                  /*coalesced=*/false, epoch);
  }
  cache_misses_.inc();
  if (!claim.leader()) {
    coalesced_waits_.inc();
    // Rethrows the leader's compilation error.
    return finish(canon, claim.pending.get(), /*cache_hit=*/false,
                  /*coalesced=*/true, epoch);
  }
  // The leader compiles on its own thread. A failure reaches the
  // waiters through fail() and this caller through the rethrow, and the
  // next claim of the key compiles afresh.
  CompiledEntryPtr entry;
  try {
    entry = compile_entry(key);
    cache_.publish(key, entry);
  } catch (...) {
    cache_.fail(key, std::current_exception());
    throw;
  }
  return finish(canon, std::move(entry), /*cache_hit=*/false,
                /*coalesced=*/false, epoch);
}

void ScheduleService::sync_mirrors() const {
  const CacheStats cache = cache_.stats();
  registry_
      .counter("aapc_service_cache_evictions_total",
               "Entries displaced by the LRU policy")
      .set_total(cache.evictions);
  registry_
      .gauge("aapc_service_cache_entries",
             "Compiled artifacts currently cached")
      .set(static_cast<double>(cache.entries));
  registry_
      .gauge("aapc_service_cache_bytes",
             "Bytes held by cached entries (schedule arena, phase offsets, "
             "op vectors, pair tables)")
      .set(static_cast<double>(cache.bytes));
  const CompilerPool::Stats pool = pool_.stats();
  registry_
      .gauge("aapc_service_queue_depth",
             "Compiler-pool helper jobs queued but not yet running")
      .set(static_cast<double>(pool.queue_depth));
  registry_
      .gauge("aapc_service_peak_queue_depth",
             "High-water mark of aapc_service_queue_depth")
      .set_max(static_cast<double>(pool.peak_queue_depth));
  const TopologyEpochs::Stats epochs = epochs_.stats();
  registry_
      .gauge("aapc_service_epoch",
             "Current topology epoch (bumps once per link event)")
      .set(static_cast<double>(epochs.epoch));
  registry_
      .counter("aapc_service_link_events_total",
               "Physical link rate events applied to the epoch feed")
      .set_total(epochs.link_events);
  registry_
      .counter("aapc_service_invalidations_total",
               "Bound topologies routed over an event's link, summed over "
               "link events")
      .set_total(epochs.invalidations);
  registry_
      .gauge("aapc_service_bound_topologies",
             "Canonical topologies bound to physical links")
      .set(static_cast<double>(epochs.bound_topologies));
}

obs::RegistrySnapshot ScheduleService::metrics_snapshot() const {
  sync_mirrors();
  return registry_.snapshot();
}

}  // namespace aapc::service
