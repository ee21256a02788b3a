// Tests for the generic (irregular-pattern) greedy scheduler and the
// irregular-size lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/greedy.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/trace/trace.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_chain;
using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

VerifyOptions lax() {
  VerifyOptions options;
  options.require_optimal_phase_count = false;
  return options;
}

TEST(GreedyTest, AapcPatternHasAllOrderedPairs) {
  const Topology topo = make_single_switch(5);
  const Pattern pattern = aapc_pattern(topo);
  EXPECT_EQ(pattern.size(), 20u);
}

TEST(GreedyTest, PatternLoadMatchesTopologyLoadForAapc) {
  for (const Topology& topo :
       {make_single_switch(6), make_chain({3, 4}), make_paper_figure1()}) {
    EXPECT_EQ(pattern_load(topo, aapc_pattern(topo)), topo.aapc_load());
  }
}

TEST(GreedyTest, SchedulesAreContentionFree) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule = greedy_schedule(topo, aapc_pattern(topo));
  const VerifyReport report = verify_schedule(topo, schedule, lax());
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_GE(schedule.phase_count(), topo.aapc_load());
}

// ---------------------------------------------------------------------------
// Golden digests. greedy_schedule is the one first-fit: it must place
// exactly as the longest-path-first greedy did, on the inputs the
// greedy tests use.

/// FNV-1a over the phase count and every (src, dst, phase) of the
/// arena, in arena order; a message's phase is the one whose offsets
/// hold its position.
std::uint64_t digest(const Schedule& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t value) {
    h ^= static_cast<std::uint64_t>(value);
    h *= 0x100000001b3ull;
  };
  mix(schedule.phase_count());
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const Message& m : schedule.phase(p)) {
      mix(m.src);
      mix(m.dst);
      mix(p);
    }
  }
  return h;
}

struct FirstFitCase {
  Topology topo;
  Pattern pattern;
};

/// The greedy tests' inputs: figure 1, the 20 random trees of
/// NeverBeatsTheOptimalSchedulerOnAapc (AAPC and radius-2 neighbor
/// exchange on each), and the irregular, duplicate, random, scatter,
/// halo and two-message patterns.
std::vector<FirstFitCase> nominal_cases() {
  std::vector<FirstFitCase> cases;
  const Topology figure1 = make_paper_figure1();
  cases.push_back({figure1, aapc_pattern(figure1)});
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 6));
    options.machines = static_cast<std::int32_t>(rng.next_in(3, 16));
    const Topology topo = topology::make_random_tree(rng, options);
    cases.push_back({topo, aapc_pattern(topo)});
    cases.push_back({topo, neighbor_exchange_pattern(topo, 2)});
  }
  const Topology chain33 = make_chain({3, 3});
  Pattern ring;
  for (Rank r = 0; r + 1 < chain33.machine_count(); ++r) {
    ring.push_back(Message{r, static_cast<Rank>(r + 1)});
    ring.push_back(Message{static_cast<Rank>(r + 1), r});
  }
  cases.push_back({chain33, ring});
  cases.push_back(
      {make_single_switch(3), {Message{0, 1}, Message{0, 1}, Message{0, 1}}});
  const Topology chain44 = make_chain({4, 4});
  Pattern random;
  Rng pairs(3);
  for (int i = 0; i < 24; ++i) {
    const auto src = static_cast<Rank>(pairs.next_below(8));
    const auto dst = static_cast<Rank>(pairs.next_below(8));
    if (src != dst) random.push_back(Message{src, dst});
  }
  cases.push_back({chain44, random});
  const Topology single6 = make_single_switch(6);
  cases.push_back({single6, scatter_pattern(single6, 2)});
  cases.push_back({chain44, neighbor_exchange_pattern(chain44, 2)});
  cases.push_back({make_single_switch(4), {Message{0, 1}, Message{2, 3}}});
  return cases;
}

void expect_digests(const std::vector<FirstFitCase>& cases,
                    const std::vector<std::uint64_t>& golden) {
  ASSERT_EQ(cases.size(), golden.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FirstFitCase& c = cases[i];
    const Schedule schedule = greedy_schedule(c.topo, c.pattern);
    EXPECT_EQ(digest(schedule), golden[i]) << "case " << i;
    EXPECT_TRUE(verify_schedule_pattern(c.topo, schedule, c.pattern, lax()).ok)
        << "case " << i;
  }
}

TEST(FirstFitGoldenTest, NominalRatesPlaceLongestPathFirst) {
  expect_digests(nominal_cases(), {
      0x7084cb52059c3be6ull, 0x9ec117207caafad2ull, 0xab6210e4ef176189ull,
      0x045e3a8dd5de7639ull, 0xe22e056435c1d7ebull, 0x0b9f90a1c1baafa6ull,
      0xd7100afa0afd1e58ull, 0x5e13c8af945d2831ull, 0x98b42e243bb60faeull,
      0xb348297a2f4e24b8ull, 0xb348297a2f4e24b8ull, 0x9e09e9b8064eda3eull,
      0x78ea5ff1da8a4463ull, 0xb348297a2f4e24b8ull, 0xb348297a2f4e24b8ull,
      0x9e09e9b8064eda3eull, 0x78ea5ff1da8a4463ull, 0xba28599b3a5500fdull,
      0xf3af0e6a630531b3ull, 0x5e36f47f6c4c834eull, 0x0c363536ac9cfee3ull,
      0x6284276a8e77faa8ull, 0x352120aa5972e206ull, 0x5e36f47f6c4c834eull,
      0x0c363536ac9cfee3ull, 0x5e36f47f6c4c834eull, 0x0c363536ac9cfee3ull,
      0x62fa48314ed38244ull, 0xd5a2bbcf382fe5d6ull, 0x5e36f47f6c4c834eull,
      0x0c363536ac9cfee3ull, 0x362ebb3cc01982daull, 0xe15153fcf40c974aull,
      0x65c1232c2218a658ull, 0xe31fbd109266d23bull, 0xc350d754d76db316ull,
      0xe8a5026051c0c600ull, 0x49f91bfb38fec67eull, 0xbe90f57420095729ull,
      0xb348297a2f4e24b8ull, 0xce17ee57a72c3540ull, 0xb5a4c083faf4f4b5ull,
      0x34bb54b68819ce62ull, 0x1b97fda0fe1ef7adull, 0x4c9e434abcde908bull,
      0x2788e8667af51a61ull, 0xd03dddb4ebd5e2aeull,
  });
}

TEST(GreedyTest, NeverBeatsTheOptimalSchedulerOnAapc) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 6));
    options.machines = static_cast<std::int32_t>(rng.next_in(3, 16));
    const Topology topo = topology::make_random_tree(rng, options);
    const Schedule greedy = greedy_schedule(topo, aapc_pattern(topo));
    const Schedule optimal = build_aapc_schedule(topo);
    EXPECT_GE(greedy.phase_count(), optimal.phase_count());
    // Greedy still lower-bounded by the pattern load.
    EXPECT_GE(greedy.phase_count(), topo.aapc_load());
  }
}

TEST(GreedyTest, IrregularPatternScheduled) {
  // A sparse neighbor-exchange pattern: machine i talks to i+1 only.
  const Topology topo = make_chain({3, 3});
  Pattern pattern;
  for (Rank r = 0; r + 1 < topo.machine_count(); ++r) {
    pattern.push_back(Message{r, static_cast<Rank>(r + 1)});
    pattern.push_back(Message{static_cast<Rank>(r + 1), r});
  }
  const Schedule schedule = greedy_schedule(topo, pattern);
  VerifyOptions options = lax();
  const VerifyReport report = verify_schedule(topo, schedule, options);
  // Coverage check (1) expects full AAPC, so only use the contention
  // result here.
  EXPECT_EQ(report.max_edge_multiplicity, 1);
  EXPECT_EQ(schedule.message_count(),
            static_cast<std::int64_t>(pattern.size()));
}

TEST(GreedyTest, DuplicateMessagesLandInDistinctPhases) {
  const Topology topo = make_single_switch(3);
  const Pattern pattern{Message{0, 1}, Message{0, 1}, Message{0, 1}};
  const Schedule schedule = greedy_schedule(topo, pattern);
  EXPECT_EQ(schedule.phase_count(), 3);
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    EXPECT_EQ(schedule.phase_size(p), 1);
  }
}

TEST(GreedyTest, EmptyPattern) {
  const Topology topo = make_single_switch(3);
  const Schedule schedule = greedy_schedule(topo, {});
  EXPECT_EQ(schedule.phase_count(), 0);
}

TEST(GreedyTest, RejectsSelfAndOutOfRange) {
  const Topology topo = make_single_switch(3);
  EXPECT_THROW(greedy_schedule(topo, {Message{1, 1}}), InvalidArgument);
  EXPECT_THROW(greedy_schedule(topo, {Message{0, 9}}), InvalidArgument);
}

TEST(GreedyTest, GreedyScheduleLowersAndRuns) {
  // Full pipeline for an irregular pattern: greedy schedule -> pairwise
  // sync lowering -> simulation; serialization holds.
  const Topology topo = make_chain({4, 4});
  Pattern pattern;
  Rng rng(3);
  for (int i = 0; i < 24; ++i) {
    const auto src = static_cast<Rank>(rng.next_below(8));
    const auto dst = static_cast<Rank>(rng.next_below(8));
    if (src != dst) pattern.push_back(Message{src, dst});
  }
  const Schedule schedule = greedy_schedule(topo, pattern);
  lowering::LoweringOptions options;
  options.include_self_copy = false;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 64_KiB, options);
  mpisim::ExecutorParams exec;
  exec.record_trace = true;
  mpisim::Executor executor(topo, {}, exec);
  const mpisim::ExecutionResult result = executor.run(set);
  EXPECT_EQ(trace::max_overlapping_contending_transfers(topo, result.trace),
            1);
}

TEST(PatternBuildersTest, ScatterLoadAndOptimalGreedy) {
  // Scatter from one machine: load = |M|-1 on the root uplink; greedy
  // first-fit is optimal here (one message per phase crosses the root
  // uplink, everything else is forced).
  const Topology topo = make_single_switch(6);
  const Pattern pattern = scatter_pattern(topo, 2);
  EXPECT_EQ(pattern.size(), 5u);
  EXPECT_EQ(pattern_load(topo, pattern), 5);
  const Schedule schedule = greedy_schedule(topo, pattern);
  EXPECT_EQ(schedule.phase_count(), 5);
}

TEST(PatternBuildersTest, GatherMirrorsScatter) {
  const Topology topo = make_chain({3, 3});
  const Pattern scatter = scatter_pattern(topo, 0);
  const Pattern gather = gather_pattern(topo, 0);
  ASSERT_EQ(scatter.size(), gather.size());
  EXPECT_EQ(pattern_load(topo, scatter), pattern_load(topo, gather));
  for (std::size_t i = 0; i < scatter.size(); ++i) {
    EXPECT_EQ(scatter[i].src, gather[i].dst);
    EXPECT_EQ(scatter[i].dst, gather[i].src);
  }
}

TEST(PatternBuildersTest, NeighborExchangeCounts) {
  const Topology topo = make_single_switch(6);
  // Radius 1: 2 messages per rank.
  EXPECT_EQ(neighbor_exchange_pattern(topo, 1).size(), 12u);
  // Radius 3 on 6 ranks: the +3 and -3 neighbors coincide -> 5/rank.
  EXPECT_EQ(neighbor_exchange_pattern(topo, 3).size(), 30u);
  // Radius |M|-1 covers the full AAPC pattern.
  EXPECT_EQ(neighbor_exchange_pattern(topo, 5).size(),
            aapc_pattern(topo).size());
}

TEST(PatternBuildersTest, NeighborExchangeSchedulesOnChain) {
  const Topology topo = make_chain({4, 4});
  const Pattern pattern = neighbor_exchange_pattern(topo, 2);
  const Schedule schedule = greedy_schedule(topo, pattern);
  const VerifyReport report = verify_schedule(topo, schedule, lax());
  EXPECT_EQ(report.max_edge_multiplicity, 1);
  EXPECT_GE(schedule.phase_count(), pattern_load(topo, pattern));
  // The halo pattern is far lighter than full AAPC.
  EXPECT_LT(schedule.phase_count(), topo.aapc_load());
}

TEST(PatternVerifierTest, AcceptsGreedySchedules) {
  const Topology topo = make_chain({4, 4});
  const Pattern pattern = neighbor_exchange_pattern(topo, 2);
  const Schedule schedule = greedy_schedule(topo, pattern);
  const VerifyReport report =
      verify_schedule_pattern(topo, schedule, pattern);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(PatternVerifierTest, DetectsMissingAndExtraMessages) {
  const Topology topo = make_single_switch(4);
  const Pattern pattern{Message{0, 1}, Message{2, 3}};
  const Schedule schedule = greedy_schedule(topo, pattern);
  // Drop one message.
  auto missing = schedule.phase_lists();
  missing[0].pop_back();
  EXPECT_FALSE(verify_schedule_pattern(
                   topo, Schedule::from_phase_lists(missing), pattern)
                   .ok);
  // Add an unexpected one.
  auto extra = schedule.phase_lists();
  extra.push_back({Message{1, 0}});
  EXPECT_FALSE(verify_schedule_pattern(
                   topo, Schedule::from_phase_lists(extra), pattern)
                   .ok);
}

TEST(PatternVerifierTest, CountsMultiplicity) {
  const Topology topo = make_single_switch(3);
  const Pattern pattern{Message{0, 1}, Message{0, 1}};
  const Schedule schedule = greedy_schedule(topo, pattern);
  EXPECT_TRUE(verify_schedule_pattern(topo, schedule, pattern).ok);
  // The same schedule does not satisfy a single-copy pattern.
  EXPECT_FALSE(
      verify_schedule_pattern(topo, schedule, {Message{0, 1}}).ok);
}

TEST(PatternVerifierTest, PhaseCountBelowLoadRejected) {
  const Topology topo = make_single_switch(3);
  // Two messages from rank 0 forced into one phase: contention AND a
  // phase count below the pattern load.
  const Schedule schedule =
      Schedule::from_phase_lists({{Message{0, 1}, Message{0, 2}}});
  const Pattern pattern{Message{0, 1}, Message{0, 2}};
  const VerifyReport report =
      verify_schedule_pattern(topo, schedule, pattern);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.max_edge_multiplicity, 2);
}

TEST(PatternBuildersTest, InvalidArgumentsRejected) {
  const Topology topo = make_single_switch(4);
  EXPECT_THROW(scatter_pattern(topo, 9), InvalidArgument);
  EXPECT_THROW(gather_pattern(topo, -1), InvalidArgument);
  EXPECT_THROW(neighbor_exchange_pattern(topo, 0), InvalidArgument);
  EXPECT_THROW(neighbor_exchange_pattern(topo, 4), InvalidArgument);
}

}  // namespace
}  // namespace aapc::core

namespace aapc::lowering {
namespace {

using topology::make_paper_figure1;
using topology::Topology;

TEST(IrregularLoweringTest, SizesFollowTheMatrix) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const std::size_t machines = 6;
  std::vector<Bytes> sizes(machines * machines, 0);
  for (std::size_t src = 0; src < machines; ++src) {
    for (std::size_t dst = 0; dst < machines; ++dst) {
      sizes[src * machines + dst] = 1000 * (src + 1) + dst;
    }
  }
  const mpisim::ProgramSet set =
      lower_schedule_irregular(topo, schedule, sizes);
  for (core::Rank src = 0; src < 6; ++src) {
    for (const mpisim::Op& op : set.programs[src].ops) {
      if (op.kind == mpisim::OpKind::kIsend &&
          op.tag() < mpisim::kSyncTag) {
        EXPECT_EQ(set.bytes(src, op), 1000u * (src + 1) + op.peer);
      }
      if (op.kind == mpisim::OpKind::kCopy) {
        EXPECT_EQ(set.bytes(src, op), 1000u * (src + 1) + src);
      }
    }
  }
}

TEST(IrregularLoweringTest, ZeroEntriesBecomeMinimalMessages) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  std::vector<Bytes> sizes(36, 0);
  const mpisim::ProgramSet set =
      lower_schedule_irregular(topo, schedule, sizes);
  mpisim::Executor executor(topo, {}, {});
  EXPECT_NO_THROW(executor.run(set));
}

TEST(IrregularLoweringTest, RunsEndToEndWithSkewedSizes) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  std::vector<Bytes> sizes(36, 1_KiB);
  // One hot sender.
  for (std::size_t dst = 0; dst < 6; ++dst) sizes[dst] = 256_KiB;
  const mpisim::ProgramSet set =
      lower_schedule_irregular(topo, schedule, sizes);
  EXPECT_EQ(set.name, "ours-irregular");
  mpisim::Executor executor(topo, {}, {});
  const mpisim::ExecutionResult result = executor.run(set);
  EXPECT_GT(result.completion_time, 0);
}

TEST(IrregularLoweringTest, WrongMatrixSizeRejected) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  EXPECT_THROW(lower_schedule_irregular(topo, schedule, {1, 2, 3}),
               aapc::InvalidArgument);
}

}  // namespace
}  // namespace aapc::lowering
