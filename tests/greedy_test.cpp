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
#include "aapc/core/weighted.hpp"
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
// Golden digests. greedy_schedule is the one first-fit: at nominal rates
// it must place exactly as the longest-path-first greedy did, and at
// degraded rates exactly as the slowest-first weighted greedy did. The
// digests below were computed from those two functions before they
// were merged, on the inputs the greedy and weighted tests use.

/// FNV-1a over the phase count and every (src, dst, phase, scope) of
/// the arena, in arena order.
std::uint64_t digest(const Schedule& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t value) {
    h ^= static_cast<std::uint64_t>(value);
    h *= 0x100000001b3ull;
  };
  mix(schedule.phase_count());
  for (const ScheduledMessage& sm : schedule.messages) {
    mix(sm.message.src);
    mix(sm.message.dst);
    mix(sm.phase);
    mix(static_cast<std::int64_t>(sm.scope));
  }
  return h;
}

struct FirstFitCase {
  Topology topo;
  Pattern pattern;
  LinkRates rates;  // empty = nominal
};

/// The greedy tests' inputs: figure 1, the 20 random trees of
/// NeverBeatsTheOptimalSchedulerOnAapc (AAPC and radius-2 neighbor
/// exchange on each), and the irregular, duplicate, random, scatter,
/// halo and two-message patterns.
std::vector<FirstFitCase> nominal_cases() {
  std::vector<FirstFitCase> cases;
  const Topology figure1 = make_paper_figure1();
  cases.push_back({figure1, aapc_pattern(figure1), {}});
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 6));
    options.machines = static_cast<std::int32_t>(rng.next_in(3, 16));
    const Topology topo = topology::make_random_tree(rng, options);
    cases.push_back({topo, aapc_pattern(topo), {}});
    cases.push_back({topo, neighbor_exchange_pattern(topo, 2), {}});
  }
  const Topology chain33 = make_chain({3, 3});
  Pattern ring;
  for (Rank r = 0; r + 1 < chain33.machine_count(); ++r) {
    ring.push_back(Message{r, static_cast<Rank>(r + 1)});
    ring.push_back(Message{static_cast<Rank>(r + 1), r});
  }
  cases.push_back({chain33, ring, {}});
  cases.push_back({make_single_switch(3),
                   {Message{0, 1}, Message{0, 1}, Message{0, 1}},
                   {}});
  const Topology chain44 = make_chain({4, 4});
  Pattern random;
  Rng pairs(3);
  for (int i = 0; i < 24; ++i) {
    const auto src = static_cast<Rank>(pairs.next_below(8));
    const auto dst = static_cast<Rank>(pairs.next_below(8));
    if (src != dst) random.push_back(Message{src, dst});
  }
  cases.push_back({chain44, random, {}});
  const Topology single6 = make_single_switch(6);
  cases.push_back({single6, scatter_pattern(single6, 2), {}});
  cases.push_back({chain44, neighbor_exchange_pattern(chain44, 2), {}});
  cases.push_back(
      {make_single_switch(4), {Message{0, 1}, Message{2, 3}}, {}});
  return cases;
}

/// The weighted tests' degraded-rate inputs, AAPC pattern throughout:
/// the random trees and rates of
/// SchedulesAreContentionFreeAndAboveTheWeightedBound and
/// NeverCostsMoreThanSchedulingRateBlind, the two slow access links of
/// GreedyAlignsSlowTrafficOfDegradedAccessLinks, and a half-rate trunk.
std::vector<FirstFitCase> degraded_cases() {
  std::vector<FirstFitCase> cases;
  Rng bound_rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(bound_rng.next_in(1, 5));
    options.machines = static_cast<std::int32_t>(bound_rng.next_in(4, 14));
    const Topology topo = topology::make_random_tree(bound_rng, options);
    LinkRates rates(static_cast<std::size_t>(topo.link_count()), 1.0);
    for (double& r : rates) {
      const std::uint64_t pick = bound_rng.next_in(0, 3);
      r = pick == 0 ? 0.25 : (pick == 1 ? 0.5 : 1.0);
    }
    cases.push_back({topo, aapc_pattern(topo), rates});
  }
  Rng blind_rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(blind_rng.next_in(1, 4));
    options.machines = static_cast<std::int32_t>(blind_rng.next_in(4, 12));
    const Topology topo = topology::make_random_tree(blind_rng, options);
    LinkRates rates(static_cast<std::size_t>(topo.link_count()), 1.0);
    for (double& r : rates) r = blind_rng.next_in(0, 2) == 0 ? 0.5 : 1.0;
    cases.push_back({topo, aapc_pattern(topo), rates});
  }
  const Topology chain33 = make_chain({3, 3});
  LinkRates access(static_cast<std::size_t>(chain33.link_count()), 1.0);
  for (const Rank slow : {0, 3}) {
    const topology::NodeId node = chain33.machine_node(slow);
    access[static_cast<std::size_t>(chain33.edge_link(
        chain33.edge_between(node, chain33.parent(node))))] = 0.25;
  }
  cases.push_back({chain33, aapc_pattern(chain33), access});
  const Topology chain22 = make_chain({2, 2});
  LinkRates trunk(static_cast<std::size_t>(chain22.link_count()), 1.0);
  for (topology::LinkId l = 0; l < chain22.link_count(); ++l) {
    const auto [a, b] = chain22.link_endpoints(l);
    if (!chain22.is_machine(a) && !chain22.is_machine(b)) {
      trunk[static_cast<std::size_t>(l)] = 0.5;
    }
  }
  cases.push_back({chain22, aapc_pattern(chain22), trunk});
  return cases;
}

void expect_digests(const std::vector<FirstFitCase>& cases,
                    const std::vector<std::uint64_t>& golden) {
  ASSERT_EQ(cases.size(), golden.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FirstFitCase& c = cases[i];
    const Schedule schedule = greedy_schedule(c.topo, c.pattern, c.rates);
    EXPECT_EQ(digest(schedule), golden[i]) << "case " << i;
    EXPECT_TRUE(verify_schedule_pattern(c.topo, schedule, c.pattern, lax()).ok)
        << "case " << i;
  }
}

TEST(FirstFitGoldenTest, NominalRatesPlaceLongestPathFirst) {
  expect_digests(nominal_cases(), {
      0x42f262dfbb5a70a4ull, 0xf2c76b138415623cull, 0x401a9301c55b1d5full,
      0xcc3d70f6ba9037cbull, 0xbe800f916e037a0full, 0x3aa8442218696f94ull,
      0xe9add3be0d52690eull, 0x07688b3a57fc893dull, 0x748f7ab4019c8644ull,
      0xd897a9647a912202ull, 0xd897a9647a912202ull, 0x1ab83dd76668790cull,
      0xcdb21ae917a25c8full, 0xd897a9647a912202ull, 0xd897a9647a912202ull,
      0x1ab83dd76668790cull, 0xcdb21ae917a25c8full, 0xb808bd57d9dcdb9full,
      0x347f5ca039322f01ull, 0x092e928dd50afde6ull, 0xca7cf42be080aa4bull,
      0x63b54e32f0201d32ull, 0x9601f5fcc50a81d0ull, 0x092e928dd50afde6ull,
      0xca7cf42be080aa4bull, 0x092e928dd50afde6ull, 0xca7cf42be080aa4bull,
      0xe6a6cd22df154cdeull, 0x0878712ba63ad7beull, 0x092e928dd50afde6ull,
      0xca7cf42be080aa4bull, 0xb1713cc406e23f50ull, 0x9265e8eb324d9cd4ull,
      0xea05265caf71d024ull, 0xaa7f795d399308bfull, 0xb069db022f5ecfa4ull,
      0x4a6db1b4b9a9cdd0ull, 0x4c3fdfb56741bcd0ull, 0x90eed958726e6d7dull,
      0xd897a9647a912202ull, 0x866af3b2efef7c0cull, 0xa42bce41f2150d07ull,
      0x4be20dba67ab3b02ull, 0xd866885fb7388d93ull, 0x630d4f47794f9197ull,
      0xd62d368c51f9838dull, 0xbdfadf5626a59164ull,
  });
}

TEST(FirstFitGoldenTest, DegradedRatesPlaceSlowestFirst) {
  expect_digests(degraded_cases(), {
      0x566a519b92b94838ull, 0x32631a74381dfc14ull, 0xa33f327d0f2101c5ull,
      0xee7c99f62d2336edull, 0x5058813e19431f04ull, 0x24a26ab5ae876740ull,
      0x21b64b6bdcfdbb52ull, 0x580a8749e261f63aull, 0x39ac87f35588db00ull,
      0xb94a021630cdda97ull, 0xf92c175ac93c072eull, 0xb1fdf165bdbcccedull,
      0x8fe9e81d89e637f8ull, 0xb2edd931389c8554ull, 0x40c58666b2c20da7ull,
      0x055d391e2d13db83ull, 0xee4c69d0dbc3abfbull, 0x7792c765673a9d0eull,
      0x3e083b06d0ddb30eull, 0xbbee0db56f540298ull, 0x6717a2ed285dec61ull,
      0x6799ac5b6a0e0dfbull, 0xb575bd8d7f823be2ull, 0x889aff0930e2d22aull,
      0x96ec34e48f11a533ull, 0xf61e76a6a480a485ull, 0xcdc9900de0f58a19ull,
      0x8b53efc4be897d26ull, 0xc319f3284a063df0ull, 0xd7893059b1b68e14ull,
      0x53121461c14c116aull, 0xcc3d70f6ba9037cbull,
  });
}

TEST(FirstFitGoldenTest, EmptyRatesEqualNominalRates) {
  for (const FirstFitCase& c : nominal_cases()) {
    const LinkRates nominal(static_cast<std::size_t>(c.topo.link_count()),
                            1.0);
    EXPECT_EQ(digest(greedy_schedule(c.topo, c.pattern)),
              digest(greedy_schedule(c.topo, c.pattern, nominal)));
  }
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
          op.tag < mpisim::kSyncTag) {
        EXPECT_EQ(op.bytes, 1000u * (src + 1) + op.peer);
      }
      if (op.kind == mpisim::OpKind::kCopy) {
        EXPECT_EQ(op.bytes, 1000u * (src + 1) + src);
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
