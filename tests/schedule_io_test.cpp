// Tests for the JSON schedule serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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

/// The JSON of `schedule` with rank r written as std::to_string(map[r]):
/// the format spelled out one field at a time, to check the writer's
/// sized copies against.
std::string reference_json(const Schedule& schedule, std::int32_t machines,
                           const std::vector<Rank>& map) {
  std::string out = "{\"machines\":" + std::to_string(machines);
  if (schedule.kind != CollectiveKind::kAlltoall) {
    out += std::string(",\"kind\":\"") + collective_kind_name(schedule.kind) +
           "\"";
  }
  out += ",\"phases\":[";
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    if (p > 0) out += ",";
    out += "[";
    const PhaseSpan phase = schedule.phase(p);
    for (std::size_t i = 0; i < phase.size(); ++i) {
      if (i > 0) out += ",";
      out += "[" + std::to_string(map[static_cast<std::size_t>(phase[i].src)]) +
             "," + std::to_string(map[static_cast<std::size_t>(phase[i].dst)]) +
             "]";
    }
    out += "]";
  }
  return out + "]}";
}

std::vector<Rank> identity_map(std::int32_t n) {
  std::vector<Rank> map(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) map[static_cast<std::size_t>(r)] = r;
  return map;
}

/// `phases` phases of random messages over `n` ranks; the first, the
/// middle and the last phase are empty.
Schedule random_schedule(std::int32_t n, std::int32_t phases, Rng& rng) {
  const auto rank = [&] {
    return static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  std::vector<std::vector<Message>> lists(static_cast<std::size_t>(phases));
  for (std::int32_t p = 0; p < phases; ++p) {
    if (p == 0 || p == phases / 2 || p == phases - 1) continue;
    const std::int64_t size = rng.next_in(1, 2 * n);
    for (std::int64_t i = 0; i < size; ++i) {
      const Rank src = rank();
      lists[static_cast<std::size_t>(p)].push_back(Message{src, rank()});
    }
  }
  return Schedule::from_phase_lists(lists);
}

// netd writes the caller-labeled JSON straight from the canonical entry
// through a rank map; it must equal the JSON of the relabeled schedule.
TEST(ScheduleIoTest, RankMapJsonEqualsRelabeledScheduleJson) {
  const Topology fat_tree = topology::make_fat_tree(4, 2, 4);
  const Topology figure1 = make_paper_figure1();
  Rng rng(2005);
  // 1200 ranks, so the labels run from 1 to 4 digits.
  constexpr std::int32_t kSyntheticRanks = 1200;
  const Schedule synthetic = random_schedule(kSyntheticRanks, 9, rng);
  ASSERT_EQ(synthetic.phase_size(0), 0);
  ASSERT_EQ(synthetic.phase_size(4), 0);
  ASSERT_EQ(synthetic.phase_size(8), 0);
  const std::vector<std::pair<std::int32_t, Schedule>> cases = {
      {fat_tree.machine_count(), build_aapc_schedule(fat_tree)},
      {fat_tree.machine_count(), build_allgather_schedule(fat_tree)},
      {figure1.machine_count(), build_aapc_schedule(figure1)},
      {figure1.machine_count(), build_allgather_schedule(figure1)},
      {kSyntheticRanks, synthetic},
  };
  for (const auto& [n, schedule] : cases) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Rank> perm = identity_map(n);
      rng.shuffle(perm);
      const std::string json = schedule_to_json(schedule, n, perm);
      EXPECT_EQ(json, schedule_to_json(relabel_schedule(schedule, perm), n))
          << collective_kind_name(schedule.kind) << " on " << n
          << " ranks, trial " << trial;
      EXPECT_EQ(json, reference_json(schedule, n, perm));
    }
    // The identity map is the two-argument writer.
    EXPECT_EQ(schedule_to_json(schedule, n, identity_map(n)),
              schedule_to_json(schedule, n));
  }
}

// Labels of every width, the widest (INT32_MIN, 11 chars) included, on
// the last message: pins the exact-size pass and the last full-width
// label copy, which the writer keeps inside the buffer it fills.
TEST(ScheduleIoTest, ExtremeLabelsMatchToString) {
  const std::vector<Rank> map = {std::numeric_limits<Rank>::min(),
                                 std::numeric_limits<Rank>::max(), -1, 0,
                                 7};
  for (Rank last = 0; last < 5; ++last) {
    const Schedule schedule = Schedule::from_phase_lists(
        {{Message{0, 1}, Message{2, 3}},
         {},
         {Message{4, 0}, Message{3, last}}});
    const std::string json = schedule_to_json(schedule, 5, map);
    EXPECT_EQ(json, reference_json(schedule, 5, map)) << "last label " << last;
  }
}

TEST(ScheduleIoTest, AppendKeepsThePrefix) {
  const Topology fat_tree = topology::make_fat_tree(4, 2, 4);
  const std::int32_t n = fat_tree.machine_count();
  const Schedule schedule = build_allgather_schedule(fat_tree);
  std::vector<Rank> perm = identity_map(n);
  Rng rng(27);
  rng.shuffle(perm);
  const std::string json = schedule_to_json(schedule, n, perm);
  const std::string prefix("frame\0header", 12);
  for (const std::size_t reserved : {std::size_t{0}, std::size_t{1} << 20}) {
    std::string out = prefix;
    out.reserve(reserved);
    append_schedule_json(out, schedule, n, perm);
    EXPECT_EQ(out, prefix + json) << "reserved " << reserved;
  }
}

/// The same cluster under a fresh machine and switch numbering.
Topology shuffled_copy(const Topology& topo, Rng& rng) {
  std::vector<topology::NodeId> order(
      static_cast<std::size_t>(topo.node_count()));
  for (std::size_t v = 0; v < order.size(); ++v) {
    order[v] = static_cast<topology::NodeId>(v);
  }
  rng.shuffle(order);
  Topology out;
  std::vector<topology::NodeId> new_id(order.size());
  for (const topology::NodeId old : order) {
    new_id[static_cast<std::size_t>(old)] =
        topo.is_machine(old) ? out.add_machine() : out.add_switch();
  }
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto [a, b] = topo.link_endpoints(l);
    out.add_link(new_id[static_cast<std::size_t>(a)],
                 new_id[static_cast<std::size_t>(b)]);
  }
  out.finalize();
  return out;
}

/// Writes `writer`'s document through one reused `chunk`-byte buffer.
/// With `taken` below 1, each chunk is cut to that share and the writer
/// moved back to the first byte not kept, as netd does when the socket
/// takes only part of a chunk.
std::string write_in_chunks(ScheduleJsonWriter writer, std::size_t chunk,
                            double taken = 1) {
  std::string buffer(chunk, '\0');
  std::string out;
  while (!writer.done()) {
    const ScheduleJsonWriter::Position mark = writer.position();
    const std::size_t n = writer.write(buffer.data(), chunk);
    EXPECT_GT(n, 0u);
    const std::size_t kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) * taken));
    if (kept < n) {
      writer.seek(mark);
      EXPECT_EQ(writer.write(buffer.data(), kept), kept);
    }
    out.append(buffer.data(), kept);
  }
  EXPECT_EQ(writer.write(buffer.data(), chunk), 0u);
  return out;
}

// netd streams each answer through a fixed chunk buffer, so the writer
// must give the same bytes whatever the chunk size: every size from 1
// byte to one past the document on small schedules of every shape, and
// the sizes around netd's 256 KiB chunk on a served-size schedule. The
// size pass must equal the bytes written.
TEST(ScheduleIoTest, EveryChunkSizeWritesTheSameBytes) {
  Rng rng(31);
  const Topology small = topology::make_fat_tree(2, 2, 4);
  const std::int32_t n = small.machine_count();
  const Topology shuffled = shuffled_copy(small, rng);
  SparseNeighbors neighbors(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + 5) % n};
  }
  Schedule empty_phase = Schedule::from_phase_lists(
      {{Message{0, 1}}, {}, {Message{1, 0}, Message{2, 3}}, {}});
  empty_phase.kind = CollectiveKind::kSparseAlltoall;
  const std::vector<std::pair<std::int32_t, Schedule>> cases = {
      {n, build_aapc_schedule(shuffled)},
      {n, build_allgather_schedule(small)},
      {n, build_reduce_scatter_schedule(small)},
      {n, build_sparse_alltoall_schedule(small, neighbors)},
      {4, empty_phase},
      {4, Schedule{}},
      {0, Schedule::from_phase_lists({})},
  };
  for (const auto& [machines, schedule] : cases) {
    std::vector<Rank> map = identity_map(machines);
    rng.shuffle(map);
    std::string expected;
    append_schedule_json(expected, schedule, machines, map);
    const ScheduleJsonWriter writer(schedule, machines, map);
    ASSERT_EQ(writer.size(), expected.size());
    for (std::size_t chunk = 1; chunk <= expected.size() + 1; ++chunk) {
      ASSERT_EQ(write_in_chunks(writer, chunk), expected)
          << collective_kind_name(schedule.kind) << " on " << machines
          << " ranks, chunk " << chunk;
    }
    EXPECT_EQ(write_in_chunks(writer, 7, 0.5), expected);
  }

  const Topology fat_tree = topology::make_fat_tree(8, 4, 8);
  const std::int32_t big = fat_tree.machine_count();
  ASSERT_EQ(big, 256);
  std::vector<Rank> map = identity_map(big);
  rng.shuffle(map);
  const Schedule schedule = build_aapc_schedule(fat_tree);
  const std::string expected = schedule_to_json(schedule, big, map);
  const ScheduleJsonWriter writer(schedule, big, map);
  ASSERT_EQ(writer.size(), expected.size());
  constexpr std::size_t kNetdChunk = std::size_t{256} << 10;
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}, kNetdChunk - 1,
        kNetdChunk, kNetdChunk + 1}) {
    EXPECT_EQ(write_in_chunks(writer, chunk), expected) << "chunk " << chunk;
  }
  // netd's rewind: the socket takes a third of each chunk.
  EXPECT_EQ(write_in_chunks(writer, kNetdChunk, 1.0 / 3), expected);
}

TEST(ScheduleIoTest, RankMapMustCoverEveryRank) {
  const Schedule schedule =
      Schedule::from_phase_lists({{Message{0, 1}}, {Message{2, 0}}});
  const std::vector<Rank> short_map = {1, 0};
  EXPECT_THROW(schedule_to_json(schedule, 3, short_map), InvalidArgument);
  // The identity writer takes ranks in [0, machines), as the reader does.
  const Schedule at_machines =
      Schedule::from_phase_lists({{Message{0, 1}}, {Message{1, 3}}});
  const Schedule negative =
      Schedule::from_phase_lists({{Message{-1, 0}}, {Message{1, 2}}});
  EXPECT_THROW(schedule_to_json(at_machines, 3), InvalidArgument);
  EXPECT_THROW(schedule_to_json(negative, 3), InvalidArgument);
  EXPECT_NO_THROW(schedule_to_json(at_machines, 4));
  // A rejected append leaves the buffer as it was.
  std::string out = "prefix";
  EXPECT_THROW(append_schedule_json(out, negative, 3, identity_map(3)),
               InvalidArgument);
  EXPECT_EQ(out, "prefix");
}

}  // namespace
}  // namespace aapc::core
