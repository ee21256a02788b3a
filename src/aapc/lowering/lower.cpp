#include "aapc/lowering/lower.hpp"

#include <string>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/verify.hpp"

namespace aapc::lowering {

using mpisim::Op;
using mpisim::Program;
using mpisim::ProgramSet;
using mpisim::RequestId;
using mpisim::Tag;

namespace {

constexpr Tag kDataTag = 0;

/// Emit helper tracking request ids per rank (requests are numbered in
/// posting order, mirroring the executor's bookkeeping). The caller
/// reserves the exact op count, so each list is allocated once. Ops
/// carry no sizes: the caller sets them on the finished set.
struct RankEmitter {
  Program program;
  RequestId next_request = 0;

  RequestId isend(core::Rank peer, Tag tag) {
    program.ops.push_back(Op::isend(peer, tag));
    return next_request++;
  }
  RequestId irecv(core::Rank peer, Tag tag) {
    program.ops.push_back(Op::irecv(peer, tag));
    return next_request++;
  }
  void wait(RequestId request) { program.ops.push_back(Op::wait(request)); }
  void wait_all() { program.ops.push_back(Op::wait_all()); }
  void barrier() { program.ops.push_back(Op::barrier()); }
  void copy() { program.ops.push_back(Op::copy()); }
};

/// One emitter per rank, each reserved to `op_count[rank]` ops.
std::vector<RankEmitter> make_emitters(
    const std::vector<std::size_t>& op_count) {
  std::vector<RankEmitter> emit(op_count.size());
  for (std::size_t r = 0; r < emit.size(); ++r) {
    emit[r].program.ops.reserve(op_count[r]);
  }
  return emit;
}

ProgramSet finish_set(std::string name, std::vector<RankEmitter>& emit) {
  ProgramSet set;
  set.name = std::move(name);
  set.programs.reserve(emit.size());
  for (auto& e : emit) set.programs.push_back(std::move(e.program));
  return set;
}

ProgramSet lower_barrier_mode(const topology::Topology& topo,
                              const core::Schedule& schedule,
                              const LoweringOptions& options,
                              LoweringInfo* info) {
  const std::int32_t ranks = topo.machine_count();
  // Per rank: the copy, a barrier per phase, and a post + wait for each
  // message it sends or receives.
  std::vector<std::size_t> op_count(
      static_cast<std::size_t>(ranks),
      (options.include_self_copy ? 1 : 0) +
          static_cast<std::size_t>(schedule.phase_count()));
  for (const core::Message& m : schedule.messages) {
    op_count[m.src] += 2;
    op_count[m.dst] += 2;
  }
  std::vector<RankEmitter> emit = make_emitters(op_count);
  if (options.include_self_copy) {
    for (auto& e : emit) e.copy();
  }
  std::vector<std::pair<core::Rank, RequestId>> to_wait;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    // Post this phase's operations, wait them, then a global barrier.
    to_wait.clear();
    for (const core::Message& m : schedule.phase(p)) {
      to_wait.emplace_back(m.dst, emit[m.dst].irecv(m.src, kDataTag));
      to_wait.emplace_back(m.src, emit[m.src].isend(m.dst, kDataTag));
      if (info != nullptr) ++info->data_messages;
    }
    for (const auto& [rank, request] : to_wait) {
      emit[rank].wait(request);
    }
    for (auto& e : emit) e.barrier();
  }
  return finish_set("ours-barrier", emit);
}

/// The op lists of the lowered set; the public entry points attach the
/// sizes.
ProgramSet lower_programs(const topology::Topology& topo,
                          const core::Schedule& schedule,
                          const LoweringOptions& options,
                          LoweringInfo* info) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");

  // Runtime schedule invariant (satellite of the §4 conditions): any
  // intra-phase directed-edge sharing means the schedule the caller is
  // about to execute is corrupted — fail now, with the edge named.
  if (options.verify_schedule) {
    core::require_contention_free(topo, schedule);
  }

  if (options.sync == SyncMode::kBarrier) {
    return lower_barrier_mode(topo, schedule, options, info);
  }

  const std::int32_t ranks = topo.machine_count();
  const auto n = static_cast<std::size_t>(schedule.messages.size());

  // Synchronization plan (empty in kNone mode). A caller that already
  // built the plan (the compilation service does) passes it through
  // `precomputed_plan` instead of paying for a second construction over
  // the same schedule. Its edge positions are the token tags, so it
  // must be strictly sorted like the plans build_sync_plan returns.
  sync::SyncPlan plan;
  const sync::SyncPlan* active_plan = &plan;
  if (options.sync == SyncMode::kPairwise) {
    if (options.precomputed_plan != nullptr) {
      active_plan = options.precomputed_plan;
      const std::vector<sync::SyncEdge>& edges = active_plan->edges;
      for (std::size_t k = 1; k < edges.size(); ++k) {
        AAPC_REQUIRE(edges[k - 1] < edges[k],
                     "precomputed sync plan is not strictly sorted by "
                     "(from, to) at edge "
                         << k);
      }
    } else {
      sync::SyncPlanOptions plan_options;
      plan_options.remove_redundant = options.reduce_redundant_syncs;
      plan = sync::build_sync_plan(topo, schedule, plan_options);
    }
  }
  if (info != nullptr) {
    info->sync_edges_before_reduction = active_plan->edges_before_reduction;
  }
  const std::vector<sync::SyncEdge>& edges = active_plan->edges;

  // Incoming and outgoing sync edges per message (the same adjacency
  // flight::analyze() rebuilds over a dump); validates every edge.
  const sync::PlanAdjacency adjacency =
      sync::build_adjacency(*active_plan, static_cast<std::int64_t>(n));

  auto sender_of = [&](std::int32_t message) {
    return schedule.messages[static_cast<std::size_t>(message)].src;
  };
  // Per rank: the copy, a prepost and a send per data message, the final
  // waitall; per sync edge a local wait (same sender) or a token irecv +
  // wait at the later sender and a token isend at the earlier one; and
  // one wait per message that has a cross-node dependent. Edges are
  // sorted by source, so a source's edges are consecutive.
  std::vector<std::size_t> op_count(static_cast<std::size_t>(ranks),
                                    options.include_self_copy ? 2 : 1);
  for (const core::Message& m : schedule.messages) {
    ++op_count[m.src];
    ++op_count[m.dst];
  }
  std::int32_t waited_source = -1;
  for (const sync::SyncEdge& e : edges) {
    const core::Rank earlier = sender_of(e.from);
    const core::Rank later = sender_of(e.to);
    if (earlier == later) {
      ++op_count[later];
      continue;
    }
    op_count[later] += 2;
    ++op_count[earlier];
    if (waited_source != e.from) {
      ++op_count[earlier];
      waited_source = e.from;
    }
  }
  std::vector<RankEmitter> emit = make_emitters(op_count);
  if (options.include_self_copy) {
    for (auto& e : emit) e.copy();
  }

  // Prepost every data receive in phase order (messages are
  // phase-sorted).
  for (std::size_t i = 0; i < n; ++i) {
    const core::Message& m = schedule.messages[i];
    emit[m.dst].irecv(m.src, kDataTag);
    if (info != nullptr) ++info->data_messages;
  }

  // Data send request id per message (assigned when emitted). Each sync
  // edge's token carries a unique tag: kSyncTag + its plan position.
  std::vector<RequestId> send_request(n, -1);
  auto sync_tag = [](std::int32_t edge) -> Tag {
    return mpisim::kSyncTag + static_cast<Tag>(edge);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const core::Message& m = schedule.messages[i];
    RankEmitter& sender = emit[m.src];
    // Incoming dependencies: my predecessors must complete first.
    for (const std::int32_t edge : adjacency.in(i)) {
      const std::int32_t from = edges[static_cast<std::size_t>(edge)].from;
      const core::Rank prev_src = sender_of(from);
      if (prev_src == m.src) {
        // Same sender: program order + a local wait suffice.
        AAPC_CHECK(send_request[static_cast<std::size_t>(from)] >= 0);
        sender.wait(send_request[static_cast<std::size_t>(from)]);
        if (info != nullptr) ++info->local_wait_dependencies;
      } else {
        // Pair-wise synchronization: wait for the token from prev's
        // sender.
        sender.wait(sender.irecv(prev_src, sync_tag(edge)));
      }
    }
    send_request[i] = sender.isend(m.dst, kDataTag);
    // Outgoing cross-node dependencies: complete my message, then send
    // one token per dependent sender.
    bool waited = false;
    for (const std::int32_t edge : adjacency.out(i)) {
      const core::Rank next_src =
          sender_of(edges[static_cast<std::size_t>(edge)].to);
      if (next_src == m.src) continue;  // lowered as their local wait
      if (!waited) {
        sender.wait(send_request[i]);
        waited = true;
      }
      sender.isend(next_src, sync_tag(edge));
      if (info != nullptr) ++info->sync_messages;
    }
  }

  for (auto& e : emit) e.wait_all();

  return finish_set(
      options.sync == SyncMode::kPairwise ? "ours" : "ours-nosync", emit);
}

}  // namespace

ProgramSet lower_schedule(const topology::Topology& topo,
                          const core::Schedule& schedule, Bytes msize,
                          const LoweringOptions& options,
                          LoweringInfo* info) {
  AAPC_REQUIRE(msize >= 1, "message size must be positive");
  ProgramSet set = lower_programs(topo, schedule, options, info);
  set.data_bytes = msize;
  set.token_bytes = options.sync_message_bytes;
  return set;
}

ProgramSet lower_schedule_irregular(const topology::Topology& topo,
                                    const core::Schedule& schedule,
                                    const std::vector<Bytes>& size_matrix,
                                    const LoweringOptions& options,
                                    LoweringInfo* info) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const auto machines = static_cast<std::size_t>(topo.machine_count());
  AAPC_REQUIRE(size_matrix.size() == machines * machines,
               "size matrix must be |M| x |M| = " << machines * machines
                                                  << " entries, got "
                                                  << size_matrix.size());
  ProgramSet set = lower_programs(topo, schedule, options, info);
  set.name += "-irregular";
  set.token_bytes = options.sync_message_bytes;
  set.pair_bytes = mpisim::pair_table(size_matrix);
  return set;
}

}  // namespace aapc::lowering
