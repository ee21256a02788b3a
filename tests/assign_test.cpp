// Tests for the Figure-4 global/local message assignment, pinned to the
// paper's worked example (Table 4) and the structural claims of §4.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "aapc/core/assign.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

// Helpers to express messages in the paper's t_{i,x} coordinates for the
// Figure-1 example (t0 = {n0,n1,n2}, t1 = {n3,n4}, t2 = {n5}).
constexpr Rank kT0[] = {0, 1, 2};
constexpr Rank kT1[] = {3, 4};
constexpr Rank kT2[] = {1000, 5};  // kT2[1] unused sentinel guard

Message msg(Rank src, Rank dst) { return Message{src, dst}; }

bool phase_contains(const Schedule& schedule, std::int32_t phase,
                    Message message) {
  const PhaseSpan span = schedule.phase(phase);
  return std::find(span.begin(), span.end(), message) != span.end();
}

TEST(AssignTest, PaperTable4GlobalMessages) {
  // The full §4.3 worked example. Expected placement follows the paper's
  // formulas (Figure 3 spans + step rules). Note: the paper's printed
  // Table 4 shows t2->t1 in phases 6-7, but the group-start formula in
  // §4.2 (which Figure 3 follows, and which Step 4's receiver-alignment
  // requires) puts that group at phases 7-8; we pin to the formulas.
  const Topology topo = make_paper_figure1();
  const Schedule schedule =
      assign_messages(decompose_at(topo, *topo.find_node("s1")));
  ASSERT_EQ(schedule.phase_count(), 9);

  // t0 -> t1 (phases 0..5, rotate senders, aligned receivers).
  EXPECT_TRUE(phase_contains(schedule, 0, msg(kT0[0], kT1[1])));
  EXPECT_TRUE(phase_contains(schedule, 1, msg(kT0[1], kT1[0])));
  EXPECT_TRUE(phase_contains(schedule, 2, msg(kT0[2], kT1[1])));
  EXPECT_TRUE(phase_contains(schedule, 3, msg(kT0[0], kT1[0])));
  EXPECT_TRUE(phase_contains(schedule, 4, msg(kT0[1], kT1[1])));
  EXPECT_TRUE(phase_contains(schedule, 5, msg(kT0[2], kT1[0])));
  // t0 -> t2 (phases 6..8).
  EXPECT_TRUE(phase_contains(schedule, 6, msg(kT0[0], kT2[1])));
  EXPECT_TRUE(phase_contains(schedule, 7, msg(kT0[1], kT2[1])));
  EXPECT_TRUE(phase_contains(schedule, 8, msg(kT0[2], kT2[1])));
  // t1 -> t2 (phases 0..1, broadcast).
  EXPECT_TRUE(phase_contains(schedule, 0, msg(kT1[0], kT2[1])));
  EXPECT_TRUE(phase_contains(schedule, 1, msg(kT1[1], kT2[1])));
  // t2 -> t0 (phases 0..2, Table-3 receivers round 0: shift 1).
  EXPECT_TRUE(phase_contains(schedule, 0, msg(kT2[1], kT0[1])));
  EXPECT_TRUE(phase_contains(schedule, 1, msg(kT2[1], kT0[2])));
  EXPECT_TRUE(phase_contains(schedule, 2, msg(kT2[1], kT0[0])));
  // t1 -> t0 (phases 3..8; rounds 1 and 2: shifts 2 and 0).
  EXPECT_TRUE(phase_contains(schedule, 3, msg(kT1[0], kT0[2])));
  EXPECT_TRUE(phase_contains(schedule, 4, msg(kT1[0], kT0[0])));
  EXPECT_TRUE(phase_contains(schedule, 5, msg(kT1[0], kT0[1])));
  EXPECT_TRUE(phase_contains(schedule, 6, msg(kT1[1], kT0[0])));
  EXPECT_TRUE(phase_contains(schedule, 7, msg(kT1[1], kT0[1])));
  EXPECT_TRUE(phase_contains(schedule, 8, msg(kT1[1], kT0[2])));
  // t2 -> t1 (phases 7..8 per the §4.2 start formula).
  EXPECT_TRUE(phase_contains(schedule, 7, msg(kT2[1], kT1[0])));
  EXPECT_TRUE(phase_contains(schedule, 8, msg(kT2[1], kT1[1])));
}

TEST(AssignTest, PaperTable4LocalMessages) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule =
      assign_messages(decompose_at(topo, *topo.find_node("s1")));
  // t0 locals embedded in phases 0..5 (Step 3).
  EXPECT_TRUE(phase_contains(schedule, 0, msg(kT0[1], kT0[0])));
  EXPECT_TRUE(phase_contains(schedule, 1, msg(kT0[2], kT0[1])));
  EXPECT_TRUE(phase_contains(schedule, 2, msg(kT0[0], kT0[2])));
  EXPECT_TRUE(phase_contains(schedule, 3, msg(kT0[2], kT0[0])));
  EXPECT_TRUE(phase_contains(schedule, 4, msg(kT0[0], kT0[1])));
  EXPECT_TRUE(phase_contains(schedule, 5, msg(kT0[1], kT0[2])));
  // t1 locals in the t1 -> t0 span (Step 5, as narrated in §4.3).
  EXPECT_TRUE(phase_contains(schedule, 4, msg(kT1[1], kT1[0])));
  EXPECT_TRUE(phase_contains(schedule, 7, msg(kT1[0], kT1[1])));
}

TEST(AssignTest, PaperExampleVerifies) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule = build_aapc_schedule(topo);
  const VerifyReport report = verify_schedule(topo, schedule);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.max_edge_multiplicity, 1);
}

TEST(AssignTest, SingleSwitchReducesToRingLikeSchedule) {
  // All-singleton subtrees: N-1 phases, each phase a perfect permutation
  // (every machine sends once and receives once).
  const Topology topo = make_single_switch(8);
  const Schedule schedule = build_aapc_schedule(topo);
  ASSERT_EQ(schedule.phase_count(), 7);
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    ASSERT_EQ(schedule.phase_size(p), 8);
    std::set<Rank> senders;
    std::set<Rank> receivers;
    for (const Message& m : schedule.phase(p)) {
      EXPECT_TRUE(senders.insert(m.src).second);
      EXPECT_TRUE(receivers.insert(m.dst).second);
    }
  }
}

TEST(AssignTest, AtMostOneLocalPerSubtreePerPhase) {
  // §4.3: "by scheduling at most one local message in each subtree" the
  // algorithm stays topology-agnostic inside subtrees.
  const Topology topo = topology::make_chain({4, 3, 2});
  const Decomposition dec = decompose(topo);
  const Schedule schedule = assign_messages(dec);
  std::map<std::pair<std::int32_t, std::int32_t>, int> locals_in_phase;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const Message& m : schedule.phase(p)) {
      const std::int32_t subtree = dec.subtree_of[m.src];
      if (dec.subtree_of[m.dst] != subtree) continue;  // global
      const int count = ++locals_in_phase[std::make_pair(p, subtree)];
      EXPECT_EQ(count, 1) << "two locals in subtree " << subtree
                          << " phase " << p;
    }
  }
}

TEST(AssignTest, Step3LocalsFitInFirstM0Window) {
  const Topology topo = topology::make_chain({4, 3, 2});
  const Decomposition dec = decompose(topo);
  const std::int32_t m0 = dec.subtree_size(0);
  const Schedule schedule = assign_messages(dec);
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const Message& m : schedule.phase(p)) {
      if (dec.subtree_of[m.src] == 0 && dec.subtree_of[m.dst] == 0) {
        EXPECT_LT(p, m0 * (m0 - 1));
      }
    }
  }
}

TEST(AssignTest, Step6RotateVariantAlsoVerifies) {
  const Topology topo = topology::make_chain({4, 3, 2});
  AssignmentOptions options;
  options.step6 = AssignmentOptions::Step6Pattern::kRotate;
  const Schedule schedule = assign_messages(decompose(topo), options);
  const VerifyReport report = verify_schedule(topo, schedule);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(AssignTest, TrivialSizes) {
  EXPECT_EQ(build_aapc_schedule(make_single_switch(1)).phase_count(), 0);
  const Schedule two = build_aapc_schedule(make_single_switch(2));
  ASSERT_EQ(two.phase_count(), 1);
  EXPECT_EQ(two.phase_size(0), 2);
  const VerifyReport report =
      verify_schedule(make_single_switch(2), two);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(AssignTest, VerifierCatchesPlantedContention) {
  // Sanity-check the verifier itself: moving a message into a phase that
  // already uses its uplink must be reported.
  const Topology topo = make_paper_figure1();
  auto phases = build_aapc_schedule(topo).phase_lists();
  // Find two messages with the same source in different phases and merge
  // them into one phase: the shared (machine -> switch) edge contends.
  Message victim{-1, -1};
  for (const Message& m0 : phases[0]) {
    for (const Message& m1 : phases[1]) {
      if (m1.src == m0.src) victim = m1;
    }
  }
  ASSERT_NE(victim.src, -1);
  phases[0].push_back(victim);
  auto& p1 = phases[1];
  p1.erase(std::find(p1.begin(), p1.end(), victim));
  const VerifyReport report =
      verify_schedule(topo, Schedule::from_phase_lists(phases));
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.max_edge_multiplicity, 2);
}

TEST(AssignTest, VerifierCatchesMissingAndDuplicateMessages) {
  const Topology topo = make_paper_figure1();
  auto phases = build_aapc_schedule(topo).phase_lists();
  phases[0].pop_back();
  VerifyReport report =
      verify_schedule(topo, Schedule::from_phase_lists(phases));
  EXPECT_FALSE(report.ok);

  auto duplicated = build_aapc_schedule(topo).phase_lists();
  duplicated[2].push_back(duplicated[5].front());
  report = verify_schedule(topo, Schedule::from_phase_lists(duplicated));
  EXPECT_FALSE(report.ok);
}

TEST(AssignTest, VerifierCatchesWrongPhaseCount) {
  const Topology topo = make_paper_figure1();
  auto phases = build_aapc_schedule(topo).phase_lists();
  phases.emplace_back();  // padding phase
  const Schedule schedule = Schedule::from_phase_lists(phases);
  VerifyReport report = verify_schedule(topo, schedule);
  EXPECT_FALSE(report.ok);
  VerifyOptions lax;
  lax.require_optimal_phase_count = false;
  report = verify_schedule(topo, schedule, lax);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(AssignTest, ScheduleToStringMentionsMachines) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule = build_aapc_schedule(topo);
  const std::string text = schedule.to_string(topo);
  EXPECT_NE(text.find("phase 0:"), std::string::npos);
  EXPECT_NE(text.find("n0->"), std::string::npos);
}

}  // namespace
}  // namespace aapc::core
