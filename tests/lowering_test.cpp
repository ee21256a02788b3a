// Tests for schedule lowering: structure of the emitted programs, the
// three sync modes, and end-to-end execution on the simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::lowering {
namespace {

using mpisim::Op;
using mpisim::OpKind;
using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

simnet::NetworkParams quiet_net() {
  simnet::NetworkParams net;  // defaults, but deterministic enough
  return net;
}

mpisim::ExecutorParams no_jitter() {
  mpisim::ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  return exec;
}

TEST(LoweringTest, DataMessageCountMatchesSchedule) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringInfo info;
  const mpisim::ProgramSet set =
      lower_schedule(topo, schedule, 8_KiB, {}, &info);
  EXPECT_EQ(info.data_messages, 30);  // 6 * 5
  EXPECT_EQ(set.rank_count(), 6);
  EXPECT_GT(info.sync_messages, 0);
  EXPECT_GT(info.local_wait_dependencies, 0);
  EXPECT_GT(info.sync_edges_before_reduction,
            info.sync_messages + info.local_wait_dependencies);
}

TEST(LoweringTest, PairwiseModeExecutesAndDeliversEverything) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringInfo info;
  const mpisim::ProgramSet set =
      lower_schedule(topo, schedule, 8_KiB, {}, &info);
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  const mpisim::ExecutionResult result = executor.run(set);
  EXPECT_EQ(result.message_count, info.data_messages + info.sync_messages);
  EXPECT_GT(result.completion_time, 0);
}

TEST(LoweringTest, NoSyncModeHasNoTokens) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringOptions options;
  options.sync = SyncMode::kNone;
  LoweringInfo info;
  const mpisim::ProgramSet set =
      lower_schedule(topo, schedule, 8_KiB, options, &info);
  EXPECT_EQ(info.sync_messages, 0);
  EXPECT_EQ(info.local_wait_dependencies, 0);
  for (const mpisim::Program& program : set.programs) {
    for (const Op& op : program.ops) {
      EXPECT_NE(op.kind, OpKind::kBarrier);
      if (op.kind == OpKind::kIsend || op.kind == OpKind::kIrecv) {
        EXPECT_LT(op.tag(), mpisim::kSyncTag);
      }
    }
  }
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  EXPECT_NO_THROW(executor.run(set));
}

TEST(LoweringTest, BarrierModeUsesBarriers) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringOptions options;
  options.sync = SyncMode::kBarrier;
  const mpisim::ProgramSet set =
      lower_schedule(topo, schedule, 8_KiB, options);
  std::int64_t barriers = 0;
  for (const Op& op : set.programs[0].ops) {
    if (op.kind == OpKind::kBarrier) ++barriers;
  }
  EXPECT_EQ(barriers, schedule.phase_count());
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  EXPECT_NO_THROW(executor.run(set));
}

TEST(LoweringTest, SelfCopyToggle) {
  const Topology topo = make_single_switch(3);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringOptions no_copy;
  no_copy.include_self_copy = false;
  const mpisim::ProgramSet without =
      lower_schedule(topo, schedule, 8_KiB, no_copy);
  for (const mpisim::Program& program : without.programs) {
    for (const Op& op : program.ops) {
      EXPECT_NE(op.kind, OpKind::kCopy);
    }
  }
  const mpisim::ProgramSet with = lower_schedule(topo, schedule, 8_KiB);
  EXPECT_EQ(with.programs[0].ops.front().kind, OpKind::kCopy);
}

TEST(LoweringTest, PairwiseSerializationBoundsConcurrency) {
  // The whole point of the schedule + syncs: the network never sees the
  // post-everything flood. On a 8-machine switch, LAM-style saturation
  // would be 56 concurrent data flows; the lowered routine stays near
  // one send + one receive per machine (plus in-flight tokens).
  const Topology topo = make_single_switch(8);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet set = lower_schedule(topo, schedule, 64_KiB);
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  const mpisim::ExecutionResult result = executor.run(set);
  EXPECT_LE(result.network_stats.max_concurrent_flows, 3 * 8);
}

TEST(LoweringTest, ReductionToggleChangesTokenCount) {
  const Topology topo = make_single_switch(6);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringInfo reduced;
  lower_schedule(topo, schedule, 8_KiB, {}, &reduced);
  LoweringOptions no_reduction;
  no_reduction.reduce_redundant_syncs = false;
  LoweringInfo full;
  lower_schedule(topo, schedule, 8_KiB, no_reduction, &full);
  EXPECT_GT(full.sync_messages, reduced.sync_messages);
  // Both still execute correctly.
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  EXPECT_NO_THROW(
      executor.run(lower_schedule(topo, schedule, 8_KiB, no_reduction)));
}

TEST(LoweringTest, SyncTokensAreSmall) {
  const Topology topo = make_single_switch(4);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  LoweringOptions options;
  options.sync_message_bytes = 4;
  const mpisim::ProgramSet set =
      lower_schedule(topo, schedule, 64_KiB, options);
  std::int64_t tokens = 0;
  for (topology::Rank r = 0; r < set.rank_count(); ++r) {
    for (const Op& op : set.programs[static_cast<std::size_t>(r)].ops) {
      if ((op.kind == OpKind::kIsend || op.kind == OpKind::kIrecv) &&
          op.tag() >= mpisim::kSyncTag) {
        EXPECT_EQ(set.bytes(r, op), 4u);
        ++tokens;
      }
    }
  }
  EXPECT_GT(tokens, 0);
}

TEST(LoweringTest, InvalidInputsRejected) {
  const Topology topo = make_single_switch(3);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  EXPECT_THROW(lower_schedule(topo, schedule, 0), aapc::InvalidArgument);
}

TEST(LoweringTest, CorruptedScheduleFailsContentionCheck) {
  // Duplicate one message into a foreign phase: both copies now claim
  // the same directed links in that phase, so the always-on runtime
  // invariant must reject the schedule before any program is emitted.
  const Topology topo = make_paper_figure1();
  core::Schedule schedule = core::build_aapc_schedule(topo);
  ASSERT_GE(schedule.phase_count(), 2);
  const std::int32_t last = schedule.phase_count() - 1;
  // Appending to the final phase keeps the arena phase-sorted.
  const core::Message stray = schedule.phase(last)[0];
  schedule.messages.push_back(stray);
  schedule.phase_begin.back() += 1;
  try {
    lower_schedule(topo, schedule, 8_KiB);
    FAIL() << "expected InvalidArgument for a contended phase";
  } catch (const aapc::InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("not contention-free"), std::string::npos) << what;
    EXPECT_NE(what.find("phase"), std::string::npos) << what;
  }
  // The escape hatch: opting out of verification lowers it anyway (for
  // ablations that intentionally build contended schedules).
  LoweringOptions lax;
  lax.verify_schedule = false;
  EXPECT_NO_THROW(lower_schedule(topo, schedule, 8_KiB, lax));
}

TEST(LoweringTest, PrecomputedPlanMustBeStrictlySorted) {
  // Token tags are plan positions, so a precomputed plan must be sorted
  // by (from, to) without repeats, as build_sync_plan returns it.
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
  ASSERT_GE(plan.edges.size(), 2u);
  LoweringOptions options;
  options.precomputed_plan = &plan;
  EXPECT_NO_THROW(lower_schedule(topo, schedule, 8_KiB, options));

  sync::SyncPlan unsorted = plan;
  std::swap(unsorted.edges[0], unsorted.edges[1]);
  options.precomputed_plan = &unsorted;
  EXPECT_THROW(lower_schedule(topo, schedule, 8_KiB, options),
               aapc::InvalidArgument);

  sync::SyncPlan duplicate = plan;
  duplicate.edges.insert(duplicate.edges.begin() + 1, duplicate.edges[0]);
  options.precomputed_plan = &duplicate;
  EXPECT_THROW(lower_schedule(topo, schedule, 8_KiB, options),
               aapc::InvalidArgument);
}

// Irregular lowering over sparse-alltoall schedules
// (core::build_sparse_alltoall_schedule): the schedules only carry the
// induced message set, so the irregular path is the natural lowering —
// per-pair sizes come from the sparse application's size matrix.

std::vector<Bytes> uniform_matrix(std::int32_t n, Bytes bytes) {
  return std::vector<Bytes>(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), bytes);
}

TEST(LoweringSparseTest, EmptyAndSelfOnlyNeighborSetsLowerToNoTraffic) {
  const Topology topo = make_single_switch(4);
  core::SparseNeighbors self_only(4);
  for (topology::Rank r = 0; r < 4; ++r) {
    self_only[static_cast<std::size_t>(r)] = {r};
  }
  for (const core::SparseNeighbors& neighbors :
       {core::SparseNeighbors(4), self_only}) {
    const core::Schedule schedule =
        core::build_sparse_alltoall_schedule(topo, neighbors);
    ASSERT_EQ(schedule.message_count(), 0);
    LoweringInfo info;
    const mpisim::ProgramSet set = lower_schedule_irregular(
        topo, schedule, uniform_matrix(4, 8_KiB), {}, &info);
    EXPECT_EQ(info.data_messages, 0);
    EXPECT_EQ(info.sync_messages, 0);
    EXPECT_EQ(set.rank_count(), 4);
    // The degenerate programs still execute cleanly.
    mpisim::Executor executor(topo, quiet_net(), no_jitter());
    const mpisim::ExecutionResult result = executor.run(set);
    EXPECT_TRUE(result.integrity.ok()) << result.integrity.summary();
    EXPECT_EQ(result.integrity.expected, result.message_count);
  }
}

TEST(LoweringSparseTest, RingNeighborhoodExecutesWithIrregularSizes) {
  const Topology topo = make_paper_figure1();
  const std::int32_t n = topo.machine_count();
  core::SparseNeighbors ring(static_cast<std::size_t>(n));
  for (topology::Rank r = 0; r < n; ++r) {
    ring[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
  }
  const core::Schedule schedule =
      core::build_sparse_alltoall_schedule(topo, ring);
  // Asymmetric halo: forward neighbor gets 4x the backward payload.
  std::vector<Bytes> matrix = uniform_matrix(n, 2_KiB);
  for (topology::Rank r = 0; r < n; ++r) {
    matrix[static_cast<std::size_t>(r * n + (r + 1) % n)] = 8_KiB;
  }
  LoweringInfo info;
  const mpisim::ProgramSet set =
      lower_schedule_irregular(topo, schedule, matrix, {}, &info);
  EXPECT_EQ(info.data_messages, 2 * n);
  mpisim::Executor executor(topo, quiet_net(), no_jitter());
  const mpisim::ExecutionResult result = executor.run(set);
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.summary();
  EXPECT_EQ(result.integrity.expected, result.message_count);
}

TEST(LoweringSparseTest, FullyDenseLowersBitIdenticallyToAapc) {
  const Topology topo = make_paper_figure1();
  const std::int32_t n = topo.machine_count();
  core::SparseNeighbors dense(static_cast<std::size_t>(n));
  for (topology::Rank r = 0; r < n; ++r) {
    for (topology::Rank v = 0; v < n; ++v) {
      if (v != r) dense[static_cast<std::size_t>(r)].push_back(v);
    }
  }
  const core::Schedule sparse =
      core::build_sparse_alltoall_schedule(topo, dense);
  const core::Schedule aapc = core::build_aapc_schedule(topo);
  const std::vector<Bytes> matrix = uniform_matrix(n, 8_KiB);
  const mpisim::ProgramSet from_sparse =
      lower_schedule_irregular(topo, sparse, matrix);
  const mpisim::ProgramSet from_aapc =
      lower_schedule_irregular(topo, aapc, matrix);
  ASSERT_EQ(from_sparse.rank_count(), from_aapc.rank_count());
  for (std::int32_t r = 0; r < from_sparse.rank_count(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(from_sparse.programs[i].to_string(from_sparse, r),
              from_aapc.programs[i].to_string(from_aapc, r))
        << "rank " << r;
  }
}

/// The same cluster under a shuffled node labeling; `perm` receives the
/// rank map (rank r of `topo` is rank perm[r] of the copy).
Topology shuffled_copy(const Topology& topo, std::uint64_t seed,
                       std::vector<topology::Rank>& perm) {
  const std::int32_t n = topo.node_count();
  std::vector<topology::NodeId> order(static_cast<std::size_t>(n));
  for (topology::NodeId v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  Rng rng(seed);
  rng.shuffle(order);
  Topology out;
  std::vector<topology::NodeId> new_id(static_cast<std::size_t>(n));
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
  perm.assign(static_cast<std::size_t>(topo.machine_count()), -1);
  for (topology::Rank r = 0; r < topo.machine_count(); ++r) {
    perm[static_cast<std::size_t>(r)] = out.rank_of(
        new_id[static_cast<std::size_t>(topo.machine_node(r))]);
  }
  return out;
}

TEST(LoweringSparseTest, RelabeledIrregularSetRunsIdenticallyOnAShuffledCopy) {
  // A skewed Alltoallv on paper (c), moved onto a relabeled copy of the
  // cluster: the pair table moves with the ranks, so every transfer
  // keeps its original pair's size and the run ends at the same time.
  const Topology topo = topology::make_paper_topology_c();
  const std::int32_t n = topo.machine_count();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  std::vector<Bytes> matrix(static_cast<std::size_t>(n) * n);
  for (topology::Rank src = 0; src < n; ++src) {
    for (topology::Rank dst = 0; dst < n; ++dst) {
      // Rank 0 ships 16x; the rest vary with the pair.
      matrix[static_cast<std::size_t>(src * n + dst)] =
          src == 0 ? 64_KiB : 1_KiB * (1 + (src * 7 + dst * 3) % 5);
    }
  }
  LoweringOptions options;
  const mpisim::ProgramSet set =
      lower_schedule_irregular(topo, schedule, matrix, options);
  std::vector<topology::Rank> perm;
  const Topology shuffled = shuffled_copy(topo, 19, perm);
  const mpisim::ProgramSet moved = mpisim::relabel_program_set(set, perm);
  mpisim::ExecutorParams exec = no_jitter();
  exec.record_trace = true;
  const mpisim::ExecutionResult before =
      mpisim::Executor(topo, quiet_net(), exec).run(set);
  const mpisim::ExecutionResult after =
      mpisim::Executor(shuffled, quiet_net(), exec).run(moved);
  EXPECT_EQ(after.completion_time, before.completion_time);
  EXPECT_EQ(after.message_count, before.message_count);
  const std::vector<topology::Rank> original = core::invert_permutation(perm);
  ASSERT_FALSE(after.trace.empty());
  for (const mpisim::MessageTrace& m : after.trace) {
    const topology::Rank src = original[static_cast<std::size_t>(m.src)];
    const topology::Rank dst = original[static_cast<std::size_t>(m.dst)];
    EXPECT_EQ(m.bytes, m.is_sync
                           ? options.sync_message_bytes
                           : matrix[static_cast<std::size_t>(src * n + dst)])
        << "rank " << src << " -> rank " << dst << " tag " << m.tag;
  }
}

// Golden digests. The sync plan and the lowering are linear CSR passes
// whose output must equal, bit for bit, that of the vector-of-vectors
// plan and lower_bound tag lookup they replaced: the digests below were
// computed with those. The cases cover both plan constructions with and
// without the transitive reduction, every sync mode, the irregular
// lowering and the self-copy toggle.

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::int64_t value) {
    h_ ^= static_cast<std::uint64_t>(value);
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every edge, then both counts.
std::uint64_t plan_digest(const sync::SyncPlan& plan) {
  Digest d;
  d.mix(static_cast<std::int64_t>(plan.edges.size()));
  for (const sync::SyncEdge& e : plan.edges) {
    d.mix(e.from);
    d.mix(e.to);
  }
  d.mix(plan.edges_before_reduction);
  d.mix(plan.cross_node_edges);
  return d.value();
}

/// The set name, every logical field of every op (kind, peer, the size
/// the set gives it, tag, request), then the LoweringInfo fields.
std::uint64_t programs_digest(const mpisim::ProgramSet& set,
                              const LoweringInfo& info) {
  Digest d;
  for (const char c : set.name) d.mix(c);
  d.mix(set.rank_count());
  for (topology::Rank r = 0; r < set.rank_count(); ++r) {
    const mpisim::Program& program = set.programs[static_cast<std::size_t>(r)];
    d.mix(static_cast<std::int64_t>(program.ops.size()));
    for (const Op& op : program.ops) {
      d.mix(static_cast<std::int64_t>(op.kind));
      d.mix(op.peer);
      d.mix(static_cast<std::int64_t>(set.bytes(r, op)));
      d.mix(op.tag());
      d.mix(op.request());
    }
  }
  d.mix(info.data_messages);
  d.mix(info.sync_messages);
  d.mix(info.local_wait_dependencies);
  d.mix(info.sync_edges_before_reduction);
  return d.value();
}

/// Radius-2 ring neighborhood (the halo-exchange shape).
core::SparseNeighbors ring_radius2(std::int32_t n) {
  core::SparseNeighbors neighbors(static_cast<std::size_t>(n));
  for (topology::Rank r = 0; r < n; ++r) {
    neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + 2) % n,
                                              (r + n - 1) % n,
                                              (r + n - 2) % n};
  }
  return neighbors;
}

struct GoldenInputs {
  Topology fat256 = topology::make_fat_tree(8, 4, 8);
  Topology tree128 = topology::make_fat_tree(4, 4, 8);
  Topology paper_b = topology::make_paper_topology_b();
  Topology paper_c = topology::make_paper_topology_c();
  Topology fabric256 = topology::make_switch_fabric({4, 4}, 16);
  core::Schedule fat256_alltoall = core::build_aapc_schedule(fat256);
  core::Schedule fat256_allgather = core::build_allgather_schedule(fat256);
  core::Schedule tree128_alltoall = core::build_aapc_schedule(tree128);
  core::Schedule paper_b_alltoall = core::build_aapc_schedule(paper_b);
  core::Schedule paper_c_alltoall = core::build_aapc_schedule(paper_c);
  core::Schedule fabric256_sparse = core::build_sparse_alltoall_schedule(
      fabric256, core::normalize_neighbors(256, ring_radius2(256)));
};

const GoldenInputs& golden_inputs() {
  static const GoldenInputs inputs;
  return inputs;
}

TEST(LoweringGoldenTest, SyncPlansAreBitIdentical) {
  const GoldenInputs& in = golden_inputs();
  ASSERT_EQ(in.fat256.machine_count(), 256);
  ASSERT_EQ(in.tree128.machine_count(), 128);
  ASSERT_EQ(in.tree128_alltoall.message_count(), 16256);
  ASSERT_EQ(in.fabric256.machine_count(), 256);
  sync::SyncPlanOptions unreduced;
  unreduced.remove_redundant = false;
  sync::SyncPlanOptions chains;
  chains.construction = sync::SyncPlanOptions::Construction::kEdgeChains;
  struct Case {
    const Topology* topo;
    const core::Schedule* schedule;
    sync::SyncPlanOptions options;
    std::uint64_t golden;
  };
  const std::vector<Case> cases = {
      // Edge chains, too many messages for the reduction.
      {&in.fat256, &in.fat256_alltoall, {}, 0xe6990f0b86d543feull},
      {&in.fat256, &in.fat256_allgather, {}, 0x56a880a1fbb4abb7ull},
      // Edge chains with the reduction, and without it.
      {&in.tree128, &in.tree128_alltoall, {}, 0x63e3045f9ffe747full},
      {&in.tree128, &in.tree128_alltoall, unreduced, 0x70eb84b62de7b8deull},
      {&in.paper_c, &in.paper_c_alltoall, chains, 0x5d024de5a2beb87dull},
      // All pairs with the reduction, and without it.
      {&in.paper_b, &in.paper_b_alltoall, {}, 0x651642610e2a968eull},
      {&in.paper_b, &in.paper_b_alltoall, unreduced, 0xe291713ac0c7e877ull},
      {&in.paper_c, &in.paper_c_alltoall, {}, 0x082acdea73ac43d4ull},
      {&in.fabric256, &in.fabric256_sparse, {}, 0x12c0f9f842fba7a7ull},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const sync::SyncPlan plan =
        sync::build_sync_plan(*c.topo, *c.schedule, c.options);
    EXPECT_EQ(plan_digest(plan), c.golden)
        << "case " << i << ": 0x" << std::hex << plan_digest(plan);
  }
}

TEST(LoweringGoldenTest, ProgramsAreBitIdentical) {
  const GoldenInputs& in = golden_inputs();
  LoweringOptions unreduced;
  unreduced.reduce_redundant_syncs = false;
  LoweringOptions barrier;
  barrier.sync = SyncMode::kBarrier;
  LoweringOptions no_sync;
  no_sync.sync = SyncMode::kNone;
  LoweringOptions no_copy;
  no_copy.include_self_copy = false;
  // The service's path: a plan built once and passed in.
  const sync::SyncPlan fat256_plan =
      sync::build_sync_plan(in.fat256, in.fat256_alltoall);
  LoweringOptions precomputed;
  precomputed.precomputed_plan = &fat256_plan;
  // Irregular sizes with zero-byte pairs (lowered as 1-byte messages).
  auto size_matrix = [](std::int32_t n) {
    std::vector<Bytes> matrix(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n));
    for (std::size_t k = 0; k < matrix.size(); ++k) {
      matrix[k] = static_cast<Bytes>((k * 7) % 5) * 1_KiB;
    }
    return matrix;
  };
  struct Case {
    const Topology* topo;
    const core::Schedule* schedule;
    LoweringOptions options;
    bool irregular;
    std::uint64_t golden;
  };
  const std::vector<Case> cases = {
      {&in.fat256, &in.fat256_alltoall, {}, false, 0x885fd3841795b8eaull},
      {&in.fat256, &in.fat256_alltoall, precomputed, false,
       0x885fd3841795b8eaull},
      {&in.fat256, &in.fat256_allgather, {}, false, 0x04991821b2f9041aull},
      {&in.tree128, &in.tree128_alltoall, {}, false, 0x500f911d9d0f6d15ull},
      {&in.tree128, &in.tree128_alltoall, unreduced, false,
       0x3b871ad9e9f3ab4aull},
      {&in.paper_b, &in.paper_b_alltoall, {}, false, 0x170603761bb28bb5ull},
      {&in.paper_b, &in.paper_b_alltoall, unreduced, false,
       0x8598b8a2512cba08ull},
      {&in.paper_b, &in.paper_b_alltoall, barrier, false,
       0x3b7d81bb427d3ee0ull},
      {&in.paper_b, &in.paper_b_alltoall, no_sync, false,
       0x5e78a7ce55323997ull},
      {&in.paper_b, &in.paper_b_alltoall, {}, true, 0x4678a4a8bafccf18ull},
      {&in.paper_c, &in.paper_c_alltoall, no_copy, false,
       0x4e84b94f7cb481a9ull},
      {&in.paper_c, &in.paper_c_alltoall, barrier, true, 0xc78413eb48d50673ull},
      {&in.fabric256, &in.fabric256_sparse, {}, true, 0xf251a18dfc23e08aull},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    LoweringInfo info;
    const mpisim::ProgramSet set =
        c.irregular
            ? lower_schedule_irregular(*c.topo, *c.schedule,
                                       size_matrix(c.topo->machine_count()),
                                       c.options, &info)
            : lower_schedule(*c.topo, *c.schedule, 64_KiB, c.options, &info);
    EXPECT_EQ(programs_digest(set, info), c.golden)
        << "case " << i << ": 0x" << std::hex << programs_digest(set, info);
  }
}

}  // namespace
}  // namespace aapc::lowering
