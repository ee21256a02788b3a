// Topology-epoch feed and stale-while-revalidate tests: exact
// invalidation accounting (only hashes bound to the event's link are
// stamped, nothing is evicted), concurrent event/reader hammering (run
// under TSan in CI), and the end-to-end serving contract — a stale hit
// answers immediately with the schedule the service already holds and
// a background weighted recompilation refreshes the entry exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/core/weighted.hpp"
#include "aapc/service/epochs.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::service {
namespace {

using topology::LinkId;
using topology::Topology;

std::vector<TopologyEpochs::LinkBinding> bindings_for(
    const std::vector<std::pair<std::int32_t, LinkId>>& pairs) {
  std::vector<TopologyEpochs::LinkBinding> out;
  for (const auto& [physical, canonical] : pairs) {
    out.push_back({physical, canonical});
  }
  return out;
}

TEST(TopologyEpochsTest, InvalidatesExactlyTheBoundHashes) {
  TopologyEpochs epochs;
  // Hash 1 over physical links {0, 1}; hash 2 over {1, 2}; hash 3 over
  // {7} — three canonical links each.
  epochs.bind(1, bindings_for({{0, 0}, {1, 1}}), 3);
  epochs.bind(2, bindings_for({{1, 0}, {2, 1}}), 3);
  epochs.bind(3, bindings_for({{7, 2}}), 3);

  const TopologyEpochs::EventResult on0 = epochs.link_event(0, 0.5);
  EXPECT_EQ(on0.epoch, 1u);
  EXPECT_EQ(on0.invalidated, 1);  // hash 1 only
  EXPECT_EQ(epochs.invalidated_at(1), 1u);
  EXPECT_EQ(epochs.invalidated_at(2), 0u);
  EXPECT_EQ(epochs.invalidated_at(3), 0u);

  const TopologyEpochs::EventResult on1 = epochs.link_event(1, 0.25);
  EXPECT_EQ(on1.epoch, 2u);
  EXPECT_EQ(on1.invalidated, 2);  // the shared link touches both
  EXPECT_EQ(epochs.invalidated_at(1), 2u);
  EXPECT_EQ(epochs.invalidated_at(2), 2u);
  EXPECT_EQ(epochs.invalidated_at(3), 0u);

  // Rates land on the canonical links the bindings name.
  const TopologyEpochs::View v1 = epochs.view(1);
  ASSERT_EQ(v1.rates.size(), 3u);
  EXPECT_DOUBLE_EQ(v1.rates[0], 0.5);
  EXPECT_DOUBLE_EQ(v1.rates[1], 0.25);
  EXPECT_DOUBLE_EQ(v1.rates[2], 1.0);
  const TopologyEpochs::View v2 = epochs.view(2);
  ASSERT_EQ(v2.rates.size(), 3u);
  EXPECT_DOUBLE_EQ(v2.rates[0], 0.25);
  EXPECT_DOUBLE_EQ(v2.rates[1], 1.0);
  // Unaffected hash: no rate vector at all (compile rate-blind).
  EXPECT_TRUE(epochs.view(3).rates.empty());

  const TopologyEpochs::Stats stats = epochs.stats();
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.link_events, 2);
  EXPECT_EQ(stats.invalidations, 3);
  EXPECT_EQ(stats.bound_topologies, 3);
}

TEST(TopologyEpochsTest, BindSeedsRatesFromCurrentFactorsAndRestores) {
  TopologyEpochs epochs;
  epochs.link_event(4, 0.5);
  // Bound after the degrade: the binding still sees the degraded world.
  epochs.bind(9, bindings_for({{4, 0}, {5, 1}}), 2);
  const TopologyEpochs::View degraded = epochs.view(9);
  ASSERT_EQ(degraded.rates.size(), 2u);
  EXPECT_DOUBLE_EQ(degraded.rates[0], 0.5);
  // But binding alone never invalidates — no event hit this hash yet.
  EXPECT_EQ(degraded.invalidated_at, 0u);

  // Restore to nominal: still an invalidation (the schedule compiled
  // for the degraded world is no longer the best one), rates go empty.
  const TopologyEpochs::EventResult up = epochs.link_event(4, 1.0);
  EXPECT_EQ(up.invalidated, 1);
  const TopologyEpochs::View restored = epochs.view(9);
  EXPECT_EQ(restored.invalidated_at, up.epoch);
  EXPECT_TRUE(restored.rates.empty());

  // A down link clamps instead of reaching rate 0.
  epochs.link_event(5, 0.0);
  ASSERT_EQ(epochs.view(9).rates.size(), 2u);
  EXPECT_DOUBLE_EQ(epochs.view(9).rates[1], TopologyEpochs::kMinRate);
}

TEST(TopologyEpochsTest, RebindReplacesTheReverseIndex) {
  TopologyEpochs epochs;
  epochs.bind(5, bindings_for({{0, 0}}), 1);
  epochs.bind(5, bindings_for({{1, 0}}), 1);  // re-election moved it
  EXPECT_EQ(epochs.link_event(0, 0.5).invalidated, 0);
  EXPECT_EQ(epochs.link_event(1, 0.5).invalidated, 1);
  epochs.unbind(5);
  EXPECT_EQ(epochs.link_event(1, 0.25).invalidated, 0);
  // The stamp survives unbinding: entries compiled before the event
  // must not become fresh again just because the binding went away.
  EXPECT_EQ(epochs.invalidated_at(5), 2u);
}

TEST(TopologyEpochsTest, ConcurrentEventHammerKeepsExactCounters) {
  // N threads each fire M events on their own link; every link is bound
  // to one private hash plus one hash spanning all links. Counters must
  // come out exact, the unaffected hash must never be stamped, and
  // concurrent view() readers must see internally-consistent snapshots
  // (TSan guards the data-race side of this in CI).
  constexpr int kThreads = 8;
  constexpr int kEvents = 200;
  TopologyEpochs epochs;
  std::vector<TopologyEpochs::LinkBinding> all;
  for (std::int32_t t = 0; t < kThreads; ++t) {
    epochs.bind(static_cast<std::uint64_t>(100 + t),
                bindings_for({{t, 0}}), 1);
    all.push_back({t, t});
  }
  epochs.bind(999, all, kThreads);
  epochs.bind(1000, bindings_for({{500, 0}}), 1);  // never touched

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Rng rng(7);
    while (!stop.load()) {
      const std::uint64_t hash = 100 + rng.next_below(kThreads);
      const TopologyEpochs::View view = epochs.view(hash);
      ASSERT_LE(view.invalidated_at, view.epoch);
      ASSERT_TRUE(view.rates.empty() || view.rates.size() == 1u);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&epochs, t] {
      for (int i = 0; i < kEvents; ++i) {
        epochs.link_event(t, (i % 2) == 0 ? 0.5 : 1.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();

  const TopologyEpochs::Stats stats = epochs.stats();
  EXPECT_EQ(stats.epoch, static_cast<std::uint64_t>(kThreads * kEvents));
  EXPECT_EQ(stats.link_events, kThreads * kEvents);
  // Each event stamps its private hash and the all-links hash: exactly
  // two invalidations per event, none anywhere else.
  EXPECT_EQ(stats.invalidations, 2 * kThreads * kEvents);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(epochs.invalidated_at(static_cast<std::uint64_t>(100 + t)), 0u);
  }
  EXPECT_GT(epochs.invalidated_at(999), 0u);
  EXPECT_EQ(epochs.invalidated_at(1000), 0u);
}

/// Compiles, binds the canonical hash to the topology's own link ids
/// (the test's "physical" space), and returns the canonicalization.
Canonicalization prime_and_bind(ScheduleService& service, const Topology& topo,
                                Bytes msize) {
  const Canonicalization canon = canonicalize(topo);
  service.compile(topo, msize);
  std::vector<TopologyEpochs::LinkBinding> links;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    links.push_back({l, canon.link_to_canonical[static_cast<std::size_t>(l)]});
  }
  service.epochs().bind(canon.hash, links, topo.link_count());
  return canon;
}

TEST(ScheduleServiceChurnTest, StaleHitAnswersImmediatelyThenRefreshes) {
  ServiceOptions options;
  options.compiler_threads = 2;
  ScheduleService service(options);
  const Topology topo = topology::make_chain({3, 3});
  const Canonicalization canon = prime_and_bind(service, topo, 4096);

  // Degrade one access link: the cached entry is now stale.
  service.epochs().link_event(0, 0.25);
  const CompiledRoutine stale = service.compile(topo, 4096);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.epoch, 1u);
  // The held schedule is still a complete, contention-free,
  // peak-bound AAPC schedule: the event changed a rate, not the tree.
  const core::VerifyReport report =
      core::verify_schedule(topo, stale.schedule);
  EXPECT_TRUE(report.ok) << report.summary();

  // The background revalidation replaces the entry with a weighted
  // compilation; poll until it lands (bounded by the test timeout).
  CompiledRoutine fresh = service.compile(topo, 4096);
  for (int i = 0; i < 2000 && fresh.stale; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fresh = service.compile(topo, 4096);
  }
  ASSERT_FALSE(fresh.stale);
  EXPECT_TRUE(fresh.cache_hit);
  ASSERT_EQ(static_cast<std::int32_t>(fresh.entry->link_rates.size()),
            topo.link_count());
  // The degraded rate reached the canonical link the binding named.
  const LinkId canonical_link = canon.link_to_canonical[0];
  EXPECT_DOUBLE_EQ(
      fresh.entry->link_rates[static_cast<std::size_t>(canonical_link)], 0.25);

  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_GE(metrics.value("aapc_service_stale_hits_total"), 1.0);
  EXPECT_GE(metrics.value("aapc_service_revalidations_total"), 1.0);
  EXPECT_EQ(metrics.value("aapc_service_revalidation_failures_total"), 0.0);
  EXPECT_EQ(metrics.value("aapc_service_epoch"), 1.0);
  EXPECT_EQ(metrics.value("aapc_service_invalidations_total"), 1.0);
}

TEST(ScheduleServiceChurnTest, StaleHitServesTheHeldSchedule) {
  // The bench_churn edge star: an empty hub, one machine behind the
  // trunk under test, four behind each of two full-rate trunks. The
  // held schedule meets the peak bound (20 phases); a rate-only degrade
  // of the one-machine trunk leaves the tree unchanged, so the stale
  // hit must serve that schedule as is, not a rescheduled one.
  ScheduleService service;
  const Topology topo = topology::make_star({0, 1, 4, 4});
  prime_and_bind(service, topo, 64_KiB);
  const CompiledRoutine healthy = service.compile(topo, 64_KiB);
  ASSERT_FALSE(healthy.stale);

  const topology::NodeId slow_switch = topo.parent(topo.machine_node(0));
  LinkId trunk = -1;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    const auto [a, b] = topo.link_endpoints(l);
    if ((a == slow_switch || b == slow_switch) && !topo.is_machine(a) &&
        !topo.is_machine(b)) {
      trunk = l;
    }
  }
  ASSERT_GE(trunk, 0);
  service.epochs().link_event(trunk, 0.5);

  const CompiledRoutine stale = service.compile(topo, 64_KiB);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.schedule.phase_begin, healthy.schedule.phase_begin);
  EXPECT_EQ(stale.schedule.messages, healthy.schedule.messages);
  const core::VerifyReport report =
      core::verify_schedule(topo, stale.schedule);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(stale.schedule.phase_count(), topo.aapc_load());
  EXPECT_EQ(topo.aapc_load(), 20);
}

TEST(ScheduleServiceChurnTest, UntouchedTopologiesKeepTheirEntries) {
  ScheduleService service;
  const Topology affected = topology::make_chain({3, 3});
  const Topology untouched = topology::make_single_switch(5);
  prime_and_bind(service, affected, 1024);
  // Bind the second topology over a disjoint physical link range.
  const Canonicalization canon_b = canonicalize(untouched);
  service.compile(untouched, 1024);
  std::vector<TopologyEpochs::LinkBinding> links;
  for (LinkId l = 0; l < untouched.link_count(); ++l) {
    links.push_back(
        {1000 + l, canon_b.link_to_canonical[static_cast<std::size_t>(l)]});
  }
  service.epochs().bind(canon_b.hash, links, untouched.link_count());

  service.epochs().link_event(0, 0.5);
  const CompiledRoutine hit = service.compile(untouched, 1024);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.stale);
  EXPECT_EQ(hit.epoch, 1u);  // the global epoch still advanced
  EXPECT_EQ(
      service.metrics_snapshot().value("aapc_service_invalidations_total"),
      1.0);
}

TEST(ScheduleServiceChurnTest, StaleHitsCoalesceIntoOneRevalidation) {
  // One worker, kept busy with a foreground compile: every stale hit in
  // the loop below runs while the revalidation is still queued, so the
  // in-flight marker must collapse them into exactly one background
  // recompilation.
  ServiceOptions options;
  options.compiler_threads = 1;
  ScheduleService service(options);
  const Topology topo = topology::make_chain({3, 3});
  prime_and_bind(service, topo, 2048);
  service.epochs().link_event(0, 0.5);

  const Topology blocker = topology::make_chain({32, 32, 32, 32});
  std::thread blocked([&] { service.compile(blocker, 2048); });
  // Wait until the worker has actually started the blocker compilation
  // (compile_ranks is set at compile_entry entry), so the revalidation
  // queued below cannot run before the stale-hit loop finishes.
  while (service.metrics_snapshot().value("aapc_service_compile_ranks") !=
         static_cast<double>(blocker.machine_count())) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 16; ++i) {
    const CompiledRoutine routine = service.compile(topo, 2048);
    EXPECT_TRUE(routine.stale);
  }
  blocked.join();
  // Counters at this point: the 16 loop hits and at most one (possibly
  // not yet executed) revalidation. Captured before the freshness
  // polling below, which adds stale hits of its own while the
  // revalidation drains.
  EXPECT_EQ(
      service.metrics_snapshot().value("aapc_service_stale_hits_total"),
      16.0);

  CompiledRoutine fresh = service.compile(topo, 2048);
  for (int i = 0; i < 2000 && fresh.stale; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fresh = service.compile(topo, 2048);
  }
  ASSERT_FALSE(fresh.stale);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.value("aapc_service_revalidations_total"), 1.0);
  EXPECT_EQ(metrics.value("aapc_service_revalidations_dropped_total"), 0.0);
}

TEST(ScheduleServiceChurnTest, MissAfterInvalidationCompilesWeightedDirectly) {
  // No cached entry at event time: the first request after the event is
  // a plain miss and must compile against the degraded rates up front —
  // no stale detour.
  ScheduleService service;
  const Topology topo = topology::make_chain({3, 3});
  const Canonicalization canon = canonicalize(topo);
  std::vector<TopologyEpochs::LinkBinding> links;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    links.push_back({l, canon.link_to_canonical[static_cast<std::size_t>(l)]});
  }
  service.epochs().bind(canon.hash, links, topo.link_count());
  service.epochs().link_event(0, 0.25);

  const CompiledRoutine routine = service.compile(topo, 4096);
  EXPECT_FALSE(routine.stale);
  EXPECT_FALSE(routine.cache_hit);
  EXPECT_EQ(routine.epoch, 1u);
  EXPECT_FALSE(routine.entry->link_rates.empty());
  // And the next request is a fresh hit — the weighted entry is cached.
  EXPECT_TRUE(service.compile(topo, 4096).cache_hit);
  EXPECT_FALSE(service.compile(topo, 4096).stale);
}

}  // namespace
}  // namespace aapc::service
