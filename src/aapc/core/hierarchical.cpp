#include "aapc/core/hierarchical.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/global_schedule.hpp"
#include "aapc/core/patterns.hpp"

namespace aapc::core {

namespace {

/// Which Figure-4 step a task's units belong to (tasks never span steps).
enum class Step : std::int8_t {
  kRootSends = 1,     // t0 -> tj
  kSendsIntoRoot,     // ti -> t0
  kRootLocals,        // locals inside t0
  kDownPairs,         // ti -> tj, i > j >= 1
  kSubtreeLocals,     // locals inside ti, embedded in ti -> t(i-1)
  kUpPairs,           // ti -> tj, 0 < i < j
};

/// A contiguous run of whole emission units within one step, plus its
/// position [offset, offset + count) in the flat staging order.
struct TaskDesc {
  Step step;
  std::int32_t i = 0;  // unit cursor: subtree (steps 1,2,5) or pair (i,j)
  std::int32_t j = 0;
  std::int64_t offset = 0;
  std::int64_t count = 0;
};

/// Read-only state shared by every task.
struct Context {
  const Decomposition* dec;
  const GlobalSchedule* global;
  const std::vector<std::int32_t>* sizes;
  std::int64_t P;
  std::int32_t m0;
  std::int32_t k;
  bool broadcast_step6;
  // Table-3 mapping: within-t0 sender/receiver index per phase.
  std::vector<std::int32_t> t0_sender;
  std::vector<std::int32_t> t0_receiver;
};

Rank rank_at(const Context& ctx, std::int32_t subtree, std::int32_t index) {
  return ctx.dec->subtrees[static_cast<std::size_t>(subtree)]
                          [static_cast<std::size_t>(index)];
}

/// Phases per settle block: small enough that a block sorts in cache,
/// large enough that the per-(task, block) cursors stay few.
constexpr std::int64_t kPhaseBlock = 4096;

/// A message's phase within its block, the settle pass's sort key.
using BlockPhase = std::uint16_t;
static_assert(kPhaseBlock - 1 <= std::numeric_limits<BlockPhase>::max(),
              "a block-local phase must fit the settle key");

template <typename Sink>
void emit(Sink& sink, std::int64_t& at, Rank src, Rank dst,
          std::int64_t phase) {
  sink(Message{src, dst}, phase);
  ++at;
}

/// Count pass: messages per phase block. Every emitted phase must lie
/// in [0, P); the scatter pass relies on it.
struct CountSink {
  std::int64_t* per_block;
  std::int64_t phases;
  void operator()(const Message&, std::int64_t phase) {
    AAPC_REQUIRE(phase >= 0 && phase < phases,
                 "emitted message phase " << phase << " out of range [0,"
                                          << phases << ")");
    ++per_block[phase / kPhaseBlock];
  }
};

/// Scatter pass: each message to its block's next slot for this task,
/// and its block-local phase to the same slot of `key`.
struct ScatterSink {
  Message* arena;
  BlockPhase* key;
  std::int64_t* cursor;  // one per block
  void operator()(const Message& message, std::int64_t phase) {
    const std::int64_t slot = cursor[phase / kPhaseBlock]++;
    arena[slot] = message;
    key[slot] = static_cast<BlockPhase>(phase % kPhaseBlock);
  }
};

// ---- per-unit emission (canonical order within each unit) ----

template <typename Sink>
std::int64_t emit_root_sends(const Context& ctx, std::int32_t j, Sink& sink,
                             std::int64_t at) {
  const std::int64_t start = ctx.global->group_start(0, j);
  const std::int64_t length = ctx.global->group_length(0, j);
  const std::int32_t mj = (*ctx.sizes)[static_cast<std::size_t>(j)];
  for (std::int64_t q = 0; q < length; ++q) {
    const std::int64_t p = start + q;
    const std::int32_t sender = ctx.t0_sender[static_cast<std::size_t>(p)];
    const auto receiver = static_cast<std::int32_t>(positive_mod(p - ctx.P, mj));
    emit(sink, at, rank_at(ctx, 0, sender), rank_at(ctx, j, receiver), p);
  }
  return at;
}

template <typename Sink>
std::int64_t emit_sends_into_root(const Context& ctx, std::int32_t i,
                                  Sink& sink, std::int64_t at) {
  const std::int64_t start = ctx.global->group_start(i, 0);
  const std::int64_t length = ctx.global->group_length(i, 0);
  for (std::int64_t q = 0; q < length; ++q) {
    const std::int64_t p = start + q;
    const auto sender = static_cast<std::int32_t>(q / ctx.m0);  // broadcast
    const std::int32_t receiver = ctx.t0_receiver[static_cast<std::size_t>(p)];
    emit(sink, at, rank_at(ctx, i, sender), rank_at(ctx, 0, receiver), p);
  }
  return at;
}

template <typename Sink>
std::int64_t emit_root_locals(const Context& ctx, Sink& sink,
                              std::int64_t at) {
  const std::int32_t m0 = ctx.m0;
  std::vector<char> done(static_cast<std::size_t>(m0) * m0, 0);
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(m0) * (m0 - 1);
       ++p) {
    const std::int32_t src = ctx.t0_receiver[static_cast<std::size_t>(p)];
    const std::int32_t dst = ctx.t0_sender[static_cast<std::size_t>(p)];
    AAPC_CHECK_MSG(src != dst, "Table-3 mapping yielded src == dst in the "
                                   << "first |M0|*(|M0|-1) phases at " << p);
    char& seen = done[static_cast<std::size_t>(src) * m0 + dst];
    AAPC_CHECK_MSG(!seen, "duplicate t0 local " << src << "->" << dst);
    seen = 1;
    emit(sink, at, rank_at(ctx, 0, src), rank_at(ctx, 0, dst), p);
  }
  return at;
}

template <typename Sink>
std::int64_t emit_down_pair(const Context& ctx, std::int32_t i,
                            std::int32_t j, Sink& sink, std::int64_t at) {
  const std::int64_t start = ctx.global->group_start(i, j);
  const std::int64_t length = ctx.global->group_length(i, j);
  const std::int32_t mj = (*ctx.sizes)[static_cast<std::size_t>(j)];
  for (std::int64_t q = 0; q < length; ++q) {
    const auto sender = static_cast<std::int32_t>(q / mj);
    const auto receiver = static_cast<std::int32_t>(q % mj);
    emit(sink, at, rank_at(ctx, i, sender), rank_at(ctx, j, receiver),
         start + q);
  }
  return at;
}

template <typename Sink>
std::int64_t emit_subtree_locals(const Context& ctx, std::int32_t i,
                                 Sink& sink, std::int64_t at) {
  const std::int32_t mi = (*ctx.sizes)[static_cast<std::size_t>(i)];
  if (mi <= 1) return at;
  const std::int32_t mprev = (*ctx.sizes)[static_cast<std::size_t>(i - 1)];
  const std::int64_t start = ctx.global->group_start(i, i - 1);
  const std::int64_t length = ctx.global->group_length(i, i - 1);
  std::vector<char> done(static_cast<std::size_t>(mi) * mi, 0);
  std::int32_t scheduled = 0;
  for (std::int64_t q = 0; q < length; ++q) {
    const std::int64_t p = start + q;
    const auto gsend = static_cast<std::int32_t>(q / mprev);
    const auto drecv =
        static_cast<std::int32_t>(positive_mod(p - ctx.P, mi));
    if (gsend == drecv) continue;
    char& seen = done[static_cast<std::size_t>(drecv) * mi + gsend];
    if (seen) continue;
    seen = 1;
    ++scheduled;
    emit(sink, at, rank_at(ctx, i, drecv), rank_at(ctx, i, gsend), p);
  }
  AAPC_CHECK_MSG(scheduled == mi * (mi - 1),
                 "subtree t" << i << " embedded only " << scheduled << "/"
                             << mi * (mi - 1) << " local messages");
  return at;
}

template <typename Sink>
std::int64_t emit_up_pair(const Context& ctx, std::int32_t i, std::int32_t j,
                          Sink& sink, std::int64_t at) {
  const std::int64_t start = ctx.global->group_start(i, j);
  const std::int32_t mi = (*ctx.sizes)[static_cast<std::size_t>(i)];
  const std::int32_t mj = (*ctx.sizes)[static_cast<std::size_t>(j)];
  const std::int64_t length =
      static_cast<std::int64_t>(mi) * static_cast<std::int64_t>(mj);
  for (std::int64_t q = 0; q < length; ++q) {
    const std::int32_t sender =
        ctx.broadcast_step6 ? static_cast<std::int32_t>(q / mj)
                            : rotate_sender_at(mi, mj, q);
    const auto receiver = static_cast<std::int32_t>(q % mj);
    emit(sink, at, rank_at(ctx, i, sender), rank_at(ctx, j, receiver),
         start + q);
  }
  return at;
}

/// Messages a unit emits, without emitting them (for task slicing).
std::int64_t unit_count(const Context& ctx, Step step, std::int32_t i,
                        std::int32_t j) {
  switch (step) {
    case Step::kRootSends:
      return ctx.global->group_length(0, j);
    case Step::kSendsIntoRoot:
      return ctx.global->group_length(i, 0);
    case Step::kRootLocals:
      return static_cast<std::int64_t>(ctx.m0) * (ctx.m0 - 1);
    case Step::kDownPairs:
    case Step::kUpPairs:
      return ctx.global->group_length(i, j);
    case Step::kSubtreeLocals: {
      const std::int64_t mi = (*ctx.sizes)[static_cast<std::size_t>(i)];
      return mi <= 1 ? 0 : mi * (mi - 1);
    }
  }
  return 0;
}

/// Advances a unit cursor within `step` to the next unit; returns false
/// when the step is exhausted. Cursor order == the flat staging order.
bool advance(const Context& ctx, Step step, std::int32_t& i,
             std::int32_t& j) {
  switch (step) {
    case Step::kRootSends:
      return ++j < ctx.k;
    case Step::kSendsIntoRoot:
    case Step::kSubtreeLocals:
      return ++i < ctx.k;
    case Step::kRootLocals:
      return false;  // single unit
    case Step::kDownPairs:
      if (++j < i) return true;
      j = 1;
      return ++i < ctx.k;
    case Step::kUpPairs:
      if (++j < ctx.k) return true;
      ++i;
      j = i + 1;
      return j < ctx.k;
  }
  return false;
}

/// First unit cursor of `step`, or false when the step has no units.
bool first_unit(const Context& ctx, Step step, std::int32_t& i,
                std::int32_t& j) {
  switch (step) {
    case Step::kRootSends:
      i = 0;
      j = 1;
      return ctx.k > 1;
    case Step::kSendsIntoRoot:
    case Step::kSubtreeLocals:
      i = 1;
      j = 0;
      return ctx.k > 1;
    case Step::kRootLocals:
      i = 0;
      j = 0;
      return true;
    case Step::kDownPairs:
      i = 2;
      j = 1;
      return ctx.k > 2;
    case Step::kUpPairs:
      i = 1;
      j = 2;
      return ctx.k > 2;
  }
  return false;
}

/// Runs one task: emits its run of units, in staging order, into
/// `sink`. Throws on internal inconsistency (captured by run_jobs and
/// rethrown after the join).
template <typename Sink>
void run_task(const Context& ctx, const TaskDesc& task, Sink& sink) {
  std::int64_t at = task.offset;
  const std::int64_t end = task.offset + task.count;
  std::int32_t i = task.i;
  std::int32_t j = task.j;
  while (at < end) {
    switch (task.step) {
      case Step::kRootSends:
        at = emit_root_sends(ctx, j, sink, at);
        break;
      case Step::kSendsIntoRoot:
        at = emit_sends_into_root(ctx, i, sink, at);
        break;
      case Step::kRootLocals:
        at = emit_root_locals(ctx, sink, at);
        break;
      case Step::kDownPairs:
        at = emit_down_pair(ctx, i, j, sink, at);
        break;
      case Step::kSubtreeLocals:
        at = emit_subtree_locals(ctx, i, sink, at);
        break;
      case Step::kUpPairs:
        at = emit_up_pair(ctx, i, j, sink, at);
        break;
    }
    if (at < end) {
      AAPC_CHECK_MSG(advance(ctx, task.step, i, j),
                     "task ran out of units with "
                         << end - at << " messages still to emit");
    }
  }
  AAPC_CHECK_MSG(at == end, "task overran its slice by " << at - end);
}

}  // namespace

Schedule assign_messages_hierarchical(const Decomposition& dec,
                                      const AssignmentOptions& options,
                                      const TaskRunner& runner) {
  HierarchicalOptions opts;
  opts.assignment = options;
  return assign_messages_hierarchical(dec, opts, runner);
}

Schedule assign_messages_hierarchical(const Decomposition& dec,
                                      const HierarchicalOptions& options,
                                      const TaskRunner& runner) {
  const std::int32_t k = dec.subtree_count();
  AAPC_CHECK(k >= 2);

  Context ctx;
  std::vector<std::int32_t> sizes(static_cast<std::size_t>(k));
  for (std::int32_t i = 0; i < k; ++i) {
    sizes[static_cast<std::size_t>(i)] = dec.subtree_size(i);
  }
  const GlobalSchedule global(sizes);
  ctx.dec = &dec;
  ctx.global = &global;
  ctx.sizes = &sizes;
  ctx.P = global.total_phases();
  ctx.m0 = sizes[0];
  ctx.k = k;
  ctx.broadcast_step6 = options.assignment.step6 ==
                        AssignmentOptions::Step6Pattern::kBroadcast;

  // Root-level prepass (Table 3): the per-phase t0 sender/receiver
  // indices. O(P) with a tiny constant; everything downstream is
  // read-only against these two arrays, which is what decouples the
  // units from each other.
  ctx.t0_sender.assign(static_cast<std::size_t>(ctx.P), -1);
  ctx.t0_receiver.assign(static_cast<std::size_t>(ctx.P), -1);
  for (std::int32_t j = 1; j < k; ++j) {
    const std::int64_t start = global.group_start(0, j);
    const std::int64_t length = global.group_length(0, j);
    const std::int32_t mj = sizes[static_cast<std::size_t>(j)];
    for (std::int64_t q = 0; q < length; ++q) {
      ctx.t0_sender[static_cast<std::size_t>(start + q)] =
          rotate_sender_at(ctx.m0, mj, q);
    }
  }
  for (std::int64_t p = 0; p < ctx.P; ++p) {
    AAPC_CHECK_MSG(ctx.t0_sender[static_cast<std::size_t>(p)] != -1,
                   "t0 groups leave phase " << p << " uncovered");
    const std::int64_t round = p / ctx.m0;
    const auto shift = static_cast<std::int32_t>(round % ctx.m0) + 1;
    ctx.t0_receiver[static_cast<std::size_t>(p)] =
        static_cast<std::int32_t>(positive_mod(
            ctx.t0_sender[static_cast<std::size_t>(p)] + shift, ctx.m0));
  }

  // Slice the canonical unit stream into tasks: accumulate whole units
  // until the per-task target is reached.
  const std::int64_t machines = dec.machine_count();
  const std::int64_t total = machines * (machines - 1);
  const std::int64_t target =
      options.messages_per_task > 0
          ? options.messages_per_task
          : std::max<std::int64_t>(kTaskGrain, total / 32);

  std::vector<TaskDesc> descs;
  std::int64_t offset = 0;
  for (const Step step :
       {Step::kRootSends, Step::kSendsIntoRoot, Step::kRootLocals,
        Step::kDownPairs, Step::kSubtreeLocals, Step::kUpPairs}) {
    std::int32_t i = 0;
    std::int32_t j = 0;
    if (!first_unit(ctx, step, i, j)) continue;
    TaskDesc current{step, i, j, offset, 0};
    bool more = true;
    while (more) {
      current.count += unit_count(ctx, step, i, j);
      more = advance(ctx, step, i, j);
      if (current.count >= target || !more) {
        if (current.count > 0) {
          offset += current.count;
          descs.push_back(current);
        }
        if (more) current = TaskDesc{step, i, j, offset, 0};
      }
    }
  }
  AAPC_CHECK_MSG(offset == total, "unit decomposition stages "
                                      << offset << " of " << total
                                      << " AAPC messages");

  // Count: each task's messages per phase block, stored block-major in
  // `slot` so that the prefix sum below lays out every block as its
  // tasks' runs in task order.
  const auto tasks = descs.size();
  const auto blocks =
      static_cast<std::size_t>((ctx.P + kPhaseBlock - 1) / kPhaseBlock);
  std::vector<std::int64_t> slot(blocks * tasks + 1, 0);
  run_jobs(
      runner, tasks,
      [&](std::size_t t) {
        std::vector<std::int64_t> per_block(blocks, 0);
        CountSink sink{per_block.data(), ctx.P};
        run_task(ctx, descs[t], sink);
        for (std::size_t b = 0; b < blocks; ++b) {
          slot[b * tasks + t] = per_block[b];
        }
      },
      "hierarchical assignment count");
  std::int64_t running = 0;
  for (std::int64_t& s : slot) {
    const std::int64_t count = s;
    s = running;
    running += count;
  }
  AAPC_CHECK_MSG(running == total, "count pass saw " << running << " of "
                                                     << total << " messages");

  // Scatter: each task writes its messages, in emission order, from its
  // cursor in every block, and must end exactly where the next task's
  // run begins, so no slot of the arena or of `key` is left unwritten.
  Schedule out;
  out.messages.resize(static_cast<std::size_t>(total));
  const auto key = std::make_unique_for_overwrite<BlockPhase[]>(
      static_cast<std::size_t>(total));
  run_jobs(
      runner, tasks,
      [&](std::size_t t) {
        std::vector<std::int64_t> cursor(blocks);
        for (std::size_t b = 0; b < blocks; ++b) {
          cursor[b] = slot[b * tasks + t];
        }
        ScatterSink sink{out.messages.data(), key.get(), cursor.data()};
        run_task(ctx, descs[t], sink);
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::int64_t next = slot[b * tasks + t + 1];
          AAPC_CHECK_MSG(cursor[b] == next,
                         "task " << t << " ended block " << b << " at slot "
                                 << cursor[b] << ", where the next run "
                                 << "begins at " << next);
        }
      },
      "hierarchical assignment scatter");

  // Settle: a stable counting sort on phase inside each block, so ties
  // keep the (task, emission) order; each block fills its phase_begin.
  out.phase_begin.resize(static_cast<std::size_t>(ctx.P) + 1);
  out.phase_begin.back() = total;
  const std::size_t settle_jobs = std::min(blocks, tasks);
  run_jobs(
      runner, settle_jobs,
      [&](std::size_t job) {
        std::vector<std::int64_t> at(static_cast<std::size_t>(kPhaseBlock));
        std::vector<Message> scratch;
        for (std::size_t b = job * blocks / settle_jobs;
             b < (job + 1) * blocks / settle_jobs; ++b) {
          const std::int64_t first = slot[b * tasks];
          const std::int64_t last = slot[(b + 1) * tasks];
          const auto phase0 = static_cast<std::int64_t>(b) * kPhaseBlock;
          const std::int64_t width = std::min(kPhaseBlock, ctx.P - phase0);
          std::fill(at.begin(), at.begin() + width, 0);
          Message* block = out.messages.data() + first;
          const BlockPhase* block_key = key.get() + first;
          const std::int64_t size = last - first;
          for (std::int64_t m = 0; m < size; ++m) ++at[block_key[m]];
          std::int64_t cursor = first;
          for (std::int64_t p = 0; p < width; ++p) {
            out.phase_begin[static_cast<std::size_t>(phase0 + p)] = cursor;
            const std::int64_t count = at[static_cast<std::size_t>(p)];
            at[static_cast<std::size_t>(p)] = cursor - first;
            cursor += count;
          }
          scratch.resize(static_cast<std::size_t>(size));
          for (std::int64_t m = 0; m < size; ++m) {
            scratch[static_cast<std::size_t>(at[block_key[m]]++)] = block[m];
          }
          std::copy(scratch.begin(), scratch.end(), block);
        }
      },
      "hierarchical assignment settle");
  return out;
}

}  // namespace aapc::core
