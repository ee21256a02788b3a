// Topology-epoch feed tests: exact accounting (an event counts only
// the hashes bound to its link), rebinding, concurrent event hammering
// (run under TSan in CI), and the serving contract — link events bump
// the epoch an answer carries and change nothing else: the next request
// is a hit on the same entry, and nothing recompiles.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
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

  const TopologyEpochs::EventResult on1 = epochs.link_event(1, 0.25);
  EXPECT_EQ(on1.epoch, 2u);
  EXPECT_EQ(on1.invalidated, 2);  // the shared link touches both

  // A link nothing is bound over bumps the epoch and counts nothing.
  const TopologyEpochs::EventResult on9 = epochs.link_event(9, 0.0);
  EXPECT_EQ(on9.epoch, 3u);
  EXPECT_EQ(on9.invalidated, 0);
  EXPECT_EQ(epochs.epoch(), 3u);

  const TopologyEpochs::Stats stats = epochs.stats();
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.link_events, 3);
  EXPECT_EQ(stats.invalidations, 3);
  EXPECT_EQ(stats.bound_topologies, 3);
}

TEST(TopologyEpochsTest, RejectsBadBindingsAndEvents) {
  TopologyEpochs epochs;
  EXPECT_THROW(epochs.bind(1, bindings_for({{0, 0}}), -1), InvalidArgument);
  EXPECT_THROW(epochs.bind(1, bindings_for({{-1, 0}}), 1), InvalidArgument);
  EXPECT_THROW(epochs.bind(1, bindings_for({{0, 1}}), 1), InvalidArgument);
  EXPECT_THROW(epochs.link_event(-1, 0.5), InvalidArgument);
  EXPECT_THROW(epochs.link_event(0, -0.5), InvalidArgument);
  // Nothing was bound or applied.
  const TopologyEpochs::Stats stats = epochs.stats();
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_EQ(stats.bound_topologies, 0);
}

TEST(TopologyEpochsTest, RebindReplacesTheReverseIndex) {
  TopologyEpochs epochs;
  epochs.bind(5, bindings_for({{0, 0}}), 1);
  epochs.bind(5, bindings_for({{1, 0}}), 1);  // re-election moved it
  EXPECT_EQ(epochs.link_event(0, 0.5).invalidated, 0);
  EXPECT_EQ(epochs.link_event(1, 0.5).invalidated, 1);
  epochs.unbind(5);
  EXPECT_EQ(epochs.link_event(1, 0.25).invalidated, 0);
  EXPECT_EQ(epochs.stats().bound_topologies, 0);
}

TEST(TopologyEpochsTest, ConcurrentEventHammerKeepsExactCounters) {
  // N threads each fire M events on their own link; every link is bound
  // to one private hash plus one hash spanning all links. Counters must
  // come out exact, the hash on an untouched link must never be counted,
  // and concurrent stats() readers must see internally consistent
  // snapshots (TSan guards the data-race side of this in CI).
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
    while (!stop.load()) {
      const TopologyEpochs::Stats stats = epochs.stats();
      ASSERT_EQ(stats.epoch, static_cast<std::uint64_t>(stats.link_events));
      ASSERT_EQ(stats.invalidations, 2 * stats.link_events);
      ASSERT_LE(stats.epoch, epochs.epoch());
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
  // Each event counts its private hash and the all-links hash: exactly
  // two per event, none anywhere else.
  EXPECT_EQ(stats.invalidations, 2 * kThreads * kEvents);
  EXPECT_EQ(stats.bound_topologies, kThreads + 2);
  EXPECT_EQ(epochs.link_event(500, 0.5).invalidated, 1);  // hash 1000 only
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

TEST(ScheduleServiceChurnTest, LinkEventsChangeNoAnswer) {
  // Degrade, down and up events on a bound topology's links bump the
  // epoch the answer carries. The answer itself stays the held entry: a
  // hit on the same pointer, never stale, with no miss and no compile.
  ScheduleService service;
  const Topology topo = topology::make_chain({3, 3});
  const Canonicalization canon = prime_and_bind(service, topo, 4096);
  const CompiledRoutine held = service.compile(topo, 4096, canon);
  const obs::RegistrySnapshot before = service.metrics_snapshot();
  const double misses = before.value("aapc_service_cache_misses_total");
  const std::int64_t compiles =
      before.find("aapc_service_compile_seconds")->histogram.count;

  // Link 0 is the trunk of make_chain, the others access links.
  const std::vector<std::pair<std::int32_t, double>> events = {
      {0, 0.5}, {1, 0.25}, {0, 0.0}, {0, 1.0}, {1, 1.0}};
  for (std::size_t e = 0; e < events.size(); ++e) {
    const TopologyEpochs::EventResult result =
        service.epochs().link_event(events[e].first, events[e].second);
    EXPECT_EQ(result.invalidated, 1);
    const CompiledRoutine routine = service.compile(topo, 4096, canon);
    EXPECT_EQ(routine.entry, held.entry) << "after event " << e;
    EXPECT_TRUE(routine.cache_hit);
    EXPECT_FALSE(routine.stale);
    EXPECT_EQ(routine.epoch, e + 1);
  }

  const obs::RegistrySnapshot after = service.metrics_snapshot();
  EXPECT_EQ(after.value("aapc_service_cache_misses_total"), misses);
  EXPECT_EQ(after.find("aapc_service_compile_seconds")->histogram.count,
            compiles);
  EXPECT_EQ(after.value("aapc_service_epoch"),
            static_cast<double>(events.size()));
  EXPECT_EQ(after.value("aapc_service_link_events_total"),
            static_cast<double>(events.size()));
  EXPECT_EQ(after.value("aapc_service_invalidations_total"),
            static_cast<double>(events.size()));
}

}  // namespace
}  // namespace aapc::service
