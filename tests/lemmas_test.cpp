// The technical-report lemmas (§4) as explicit randomized property
// tests, beyond the end-to-end Theorem check in schedule_property_test:
//
//  Lemma 2:  extended-ring phases never double-book a root link
//            (covered structurally in global_schedule_test; here the
//            root-link claim is checked on real schedules).
//  Lemma 4:  global messages alone are contention-free in every phase.
//  Step 1/4 alignment: at every phase of every group into subtree tj,
//            the receiver is the *designated* receiver
//            t_{j,(p - P) mod |Mj|}.
//  Step 5 feasibility: every subtree's local messages fit inside the
//            phases of its group toward the preceding subtree.
#include <gtest/gtest.h>

#include "aapc/common/rng.hpp"
#include "aapc/core/assign.hpp"
#include "aapc/core/global_schedule.hpp"
#include "aapc/core/patterns.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::Topology;

struct Fixture {
  Topology topo;
  Decomposition dec;
  Schedule schedule;
  std::vector<std::int32_t> sizes;
  std::int64_t total_phases;
};

Fixture make_fixture(std::uint64_t seed) {
  Rng rng(seed * 6361 + 11);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 8));
  options.machines = static_cast<std::int32_t>(rng.next_in(4, 24));
  Fixture fixture{topology::make_random_tree(rng, options), {}, {}, {}, 0};
  fixture.dec = decompose(fixture.topo);
  fixture.schedule = assign_messages(fixture.dec);
  for (std::int32_t i = 0; i < fixture.dec.subtree_count(); ++i) {
    fixture.sizes.push_back(fixture.dec.subtree_size(i));
  }
  fixture.total_phases = fixture.dec.total_phases();
  return fixture;
}

class LemmaRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LemmaRandomTest, Lemma4GlobalMessagesAloneAreContentionFree) {
  const Fixture fixture = make_fixture(GetParam());
  // Rebuild a schedule holding only the global messages and check
  // per-phase edge-disjointness.
  for (std::int32_t p = 0; p < fixture.schedule.phase_count(); ++p) {
    std::vector<std::int32_t> edge_use(
        static_cast<std::size_t>(fixture.topo.directed_edge_count()), 0);
    for (const Message& m : fixture.schedule.phase(p)) {
      if (fixture.dec.subtree_of[m.src] == fixture.dec.subtree_of[m.dst]) {
        continue;  // local
      }
      for (const topology::EdgeId e :
           fixture.topo.path(fixture.topo.machine_node(m.src),
                             fixture.topo.machine_node(m.dst))) {
        EXPECT_EQ(++edge_use[static_cast<std::size_t>(e)], 1);
      }
    }
  }
}

TEST_P(LemmaRandomTest, Lemma2NoTwoGroupsUseARootLinkPerPhase) {
  const Fixture fixture = make_fixture(GetParam());
  // Per phase: each subtree sends at most one global message and
  // receives at most one (its root link is double-booked otherwise).
  const std::int32_t k = fixture.dec.subtree_count();
  for (std::int32_t p = 0; p < fixture.schedule.phase_count(); ++p) {
    std::vector<std::int32_t> sending(k, 0);
    std::vector<std::int32_t> receiving(k, 0);
    for (const Message& m : fixture.schedule.phase(p)) {
      const std::int32_t si = fixture.dec.subtree_of[m.src];
      const std::int32_t di = fixture.dec.subtree_of[m.dst];
      if (si == di) continue;
      EXPECT_EQ(++sending[si], 1);
      EXPECT_EQ(++receiving[di], 1);
    }
  }
}

TEST_P(LemmaRandomTest, DesignatedReceiverAlignmentHolds) {
  // §4.3: for every group tu -> tj with j >= 1 and (u == 0 or u > j),
  // the receiver at global phase p is t_{j,(p - P) mod |Mj|}. The two
  // exempt group families: Step-2 groups into t0 (their receivers
  // follow the Table-3 round mapping instead) and Step-6 groups
  // (0 < u < j, scheduling freedom).
  const Fixture fixture = make_fixture(GetParam());
  const GlobalSchedule global(fixture.sizes);
  const std::int64_t P = fixture.total_phases;
  for (std::int64_t p = 0; p < P; ++p) {
    for (const Message& m :
         fixture.schedule.phase(static_cast<std::int32_t>(p))) {
      const std::int32_t u = fixture.dec.subtree_of[m.src];
      const std::int32_t j = fixture.dec.subtree_of[m.dst];
      if (u == j) continue;
      if (j == 0) continue;          // Step 2: Table-3 mapping instead
      if (u != 0 && u < j) continue;  // Step 6: alignment not required
      const std::int32_t mj = fixture.sizes[j];
      EXPECT_EQ(fixture.dec.index_in_subtree[m.dst],
                static_cast<std::int32_t>(positive_mod(p - P, mj)))
          << "group t" << u << "->t" << j << " at phase " << p;
    }
  }
}

TEST_P(LemmaRandomTest, Step5LocalsLiveInsideTheirGroupSpan) {
  const Fixture fixture = make_fixture(GetParam());
  const GlobalSchedule global(fixture.sizes);
  for (std::int32_t p = 0; p < fixture.schedule.phase_count(); ++p) {
    for (const Message& m : fixture.schedule.phase(p)) {
      const std::int32_t i = fixture.dec.subtree_of[m.src];
      if (fixture.dec.subtree_of[m.dst] != i) continue;  // global
      if (i == 0) {
        // Step 3: first |M0|*(|M0|-1) phases.
        const std::int64_t m0 = fixture.sizes[0];
        EXPECT_LT(p, m0 * (m0 - 1));
      } else {
        // Step 5: the span of t_i -> t_{i-1}.
        const std::int64_t start = global.group_start(i, i - 1);
        const std::int64_t length = global.group_length(i, i - 1);
        EXPECT_GE(p, start);
        EXPECT_LT(p, start + length);
      }
    }
  }
}

TEST_P(LemmaRandomTest, EverySubtreeSendsGloballyInEveryPhaseOfT0) {
  // Step 1's rotate senders: subtree t0 sends exactly one global
  // message in every phase, and each t0 machine appears once per
  // aligned |M0| window (the property Step 2's Table-3 mapping needs).
  const Fixture fixture = make_fixture(GetParam());
  const std::int64_t P = fixture.total_phases;
  const std::int32_t m0 = fixture.sizes[0];
  std::vector<std::int32_t> sender_at_phase(static_cast<std::size_t>(P), -1);
  for (std::int32_t p = 0; p < fixture.schedule.phase_count(); ++p) {
    for (const Message& m : fixture.schedule.phase(p)) {
      if (fixture.dec.subtree_of[m.src] != 0) continue;
      if (fixture.dec.subtree_of[m.dst] == 0) continue;  // local
      ASSERT_EQ(sender_at_phase[static_cast<std::size_t>(p)], -1);
      sender_at_phase[static_cast<std::size_t>(p)] =
          fixture.dec.index_in_subtree[m.src];
    }
  }
  for (std::int64_t window = 0; window < P / m0; ++window) {
    std::vector<char> seen(static_cast<std::size_t>(m0), 0);
    for (std::int64_t p = window * m0; p < (window + 1) * m0; ++p) {
      const std::int32_t sender =
          sender_at_phase[static_cast<std::size_t>(p)];
      ASSERT_NE(sender, -1) << "t0 idle at phase " << p;
      EXPECT_EQ(seen[static_cast<std::size_t>(sender)], 0);
      seen[static_cast<std::size_t>(sender)] = 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemmaRandomTest,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace aapc::core
