// Tests for the JSON schedule serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

TEST(ScheduleIoTest, RoundTripPreservesPhases) {
  const Topology topo = make_paper_figure1();
  const Schedule original = build_aapc_schedule(topo);
  const std::string json = schedule_to_json(original, topo.machine_count());
  const Schedule loaded = schedule_from_json(json, topo.machine_count());
  ASSERT_EQ(loaded.phase_count(), original.phase_count());
  const auto loaded_phases = loaded.phase_lists();
  const auto original_phases = original.phase_lists();
  for (std::int32_t p = 0; p < original.phase_count(); ++p) {
    EXPECT_EQ(loaded_phases[static_cast<std::size_t>(p)],
              original_phases[static_cast<std::size_t>(p)])
        << "phase " << p;
  }
  // The loaded schedule still verifies against the topology.
  const VerifyReport report = verify_schedule(topo, loaded);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ScheduleIoTest, GoldenFormat) {
  const Schedule schedule = Schedule::from_phase_lists(
      {{Message{0, 1}, Message{1, 2}}, {}, {Message{2, 0}}});
  EXPECT_EQ(schedule_to_json(schedule, 3),
            "{\"machines\":3,\"phases\":[[[0,1],[1,2]],[],[[2,0]]]}");
}

TEST(ScheduleIoTest, ParsesWithWhitespace) {
  const Schedule schedule = schedule_from_json(R"(
    {
      "machines": 3,
      "phases": [
        [ [0, 1], [1, 2] ],
        [ [2, 0] ]
      ]
    }
  )");
  ASSERT_EQ(schedule.phase_count(), 2);
  EXPECT_EQ(schedule.phase_size(0), 2);
  EXPECT_EQ(schedule.messages.size(), 3u);
  EXPECT_EQ(schedule.phase_of(2), 1);
}

TEST(ScheduleTest, PhaseOfSkipsEmptyPhases) {
  const Schedule schedule = Schedule::from_phase_lists(
      {{}, {Message{0, 1}, Message{1, 2}}, {}, {}, {Message{2, 0}}, {}});
  ASSERT_EQ(schedule.phase_count(), 6);
  EXPECT_EQ(schedule.phase_of(0), 1);
  EXPECT_EQ(schedule.phase_of(1), 1);
  EXPECT_EQ(schedule.phase_of(2), 4);
  EXPECT_THROW(schedule.phase_of(-1), InvalidArgument);
  EXPECT_THROW(schedule.phase_of(3), InvalidArgument);
}

TEST(ScheduleIoTest, EmptySchedule) {
  const Schedule schedule =
      schedule_from_json("{\"machines\":4,\"phases\":[]}");
  EXPECT_EQ(schedule.phase_count(), 0);
  EXPECT_EQ(schedule_to_json(schedule, 4),
            "{\"machines\":4,\"phases\":[]}");
}

TEST(ScheduleIoTest, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_json(""), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3}"), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"phases\":[]}"), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3,\"phases\":[[[0]]]}"),
               InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3,\"bogus\":1,\"phases\":[]}"),
               InvalidArgument);
  EXPECT_THROW(
      schedule_from_json("{\"machines\":3,\"phases\":[]} trailing"),
      InvalidArgument);
}

TEST(ScheduleIoTest, RejectsRanksOutOfRange) {
  EXPECT_THROW(schedule_from_json("{\"machines\":2,\"phases\":[[[0,5]]]}"),
               InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":2,\"phases\":[[[-1,0]]]}"),
               InvalidArgument);
  // Wrapped into 32 bits, each of these is rank 1; read exactly, none is
  // a rank of a 2-machine schedule. The second does not fit 64 bits.
  for (const char* rank :
       {"4294967297", "18446744073709551617", "-4294967295"}) {
    EXPECT_THROW(schedule_from_json(std::string("{\"machines\":2,"
                                                "\"phases\":[[[") +
                                    rank + ",0]]]}"),
                 InvalidArgument)
        << rank;
  }
  // The bound holds when "machines" comes after the phases, too.
  EXPECT_THROW(schedule_from_json("{\"phases\":[[[0,5]]],\"machines\":2}"),
               InvalidArgument);
  EXPECT_NO_THROW(
      schedule_from_json("{\"phases\":[[[0,1]]],\"machines\":2}"));
}

TEST(ScheduleIoTest, MachineCountMismatchRejected) {
  const std::string json = "{\"machines\":4,\"phases\":[]}";
  EXPECT_NO_THROW(schedule_from_json(json));
  EXPECT_NO_THROW(schedule_from_json(json, 4));
  EXPECT_THROW(schedule_from_json(json, 5), InvalidArgument);
}

TEST(ScheduleIoTest, LargeScheduleRoundTrip) {
  const Topology topo = make_single_switch(16);
  const Schedule original = build_aapc_schedule(topo);
  const Schedule loaded = schedule_from_json(
      schedule_to_json(original, 16), 16);
  EXPECT_EQ(loaded.message_count(), original.message_count());
  EXPECT_TRUE(verify_schedule(topo, loaded).ok);
}

/// FNV-1a over the bytes of a serialized schedule.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The served wire bytes are this JSON. The digests were computed with
// the ostringstream writer the to_chars writer replaced, so these pin
// the format byte for byte on schedules of served size.
TEST(ScheduleIoTest, GoldenDigests) {
  const Topology fat_tree = topology::make_fat_tree(8, 4, 8);
  ASSERT_EQ(fat_tree.machine_count(), 256);
  const Topology figure1 = make_paper_figure1();
  const std::string alltoall =
      schedule_to_json(build_aapc_schedule(fat_tree), 256);
  const std::string allgather =
      schedule_to_json(build_allgather_schedule(fat_tree), 256);
  const std::string paper = schedule_to_json(build_aapc_schedule(figure1),
                                             figure1.machine_count());
  ASSERT_NE(allgather.find("\"kind\":\"allgather\""), std::string::npos);
  EXPECT_EQ(alltoall.size(), 611063u);
  EXPECT_EQ(fnv1a(alltoall), 0xa9985392983222c6ull);
  EXPECT_EQ(allgather.size(), 597256u);
  EXPECT_EQ(fnv1a(allgather), 0x6d1b8137ed62f492ull);
  EXPECT_EQ(paper.size(), 223u);
  EXPECT_EQ(fnv1a(paper), 0x5f4904bd511b08c1ull);
}

// netd writes the caller-labeled JSON straight from the canonical entry
// through a rank map; it must equal the JSON of the relabeled schedule.
TEST(ScheduleIoTest, RankMapJsonEqualsRelabeledScheduleJson) {
  const Topology fat_tree = topology::make_fat_tree(4, 2, 4);
  const Topology figure1 = make_paper_figure1();
  const std::vector<std::pair<const Topology*, Schedule>> cases = {
      {&fat_tree, build_aapc_schedule(fat_tree)},
      {&fat_tree, build_allgather_schedule(fat_tree)},
      {&figure1, build_aapc_schedule(figure1)},
      {&figure1, build_allgather_schedule(figure1)},
  };
  Rng rng(2005);
  for (const auto& [topo, schedule] : cases) {
    const std::int32_t n = topo->machine_count();
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Rank> perm(static_cast<std::size_t>(n));
      for (Rank r = 0; r < n; ++r) perm[static_cast<std::size_t>(r)] = r;
      rng.shuffle(perm);
      EXPECT_EQ(schedule_to_json(schedule, n, perm),
                schedule_to_json(relabel_schedule(schedule, perm), n))
          << collective_kind_name(schedule.kind) << " on " << n
          << " ranks, trial " << trial;
    }
    // The identity map is the two-argument writer.
    std::vector<Rank> identity(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) identity[static_cast<std::size_t>(r)] = r;
    EXPECT_EQ(schedule_to_json(schedule, n, identity),
              schedule_to_json(schedule, n));
  }
}

TEST(ScheduleIoTest, RankMapMustCoverEveryRank) {
  const Schedule schedule =
      Schedule::from_phase_lists({{Message{0, 1}}, {Message{2, 0}}});
  const std::vector<Rank> short_map = {1, 0};
  EXPECT_THROW(schedule_to_json(schedule, 3, short_map), InvalidArgument);
}

}  // namespace
}  // namespace aapc::core
