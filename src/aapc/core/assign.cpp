#include "aapc/core/assign.hpp"

#include <algorithm>

#include "aapc/common/error.hpp"
#include "aapc/core/global_schedule.hpp"
#include "aapc/core/patterns.hpp"

namespace aapc::core {

Schedule assign_messages(const Decomposition& dec,
                         const AssignmentOptions& options) {
  const std::int32_t k = dec.subtree_count();
  AAPC_CHECK(k >= 2);
  std::vector<std::int32_t> sizes(k);
  for (std::int32_t i = 0; i < k; ++i) sizes[i] = dec.subtree_size(i);
  const GlobalSchedule global(sizes);
  const std::int64_t P = global.total_phases();
  const std::int32_t m0 = sizes[0];

  const std::int64_t machine_total = dec.machine_count();
  ScheduleBuilder builder;
  builder.reserve(machine_total * (machine_total - 1));
  auto rank_at = [&](std::int32_t subtree, std::int32_t index) -> Rank {
    return dec.subtrees[subtree][static_cast<std::size_t>(index)];
  };

  // ---- Step 1: t0 -> tj (rotate senders, aligned receivers). ----
  // t0_sender[p]: index within t0 of the machine sending a global message
  // at phase p. Groups t0 -> t1, ..., t0 -> t(k-1) tile [0, P) exactly.
  std::vector<std::int32_t> t0_sender(static_cast<std::size_t>(P), -1);
  for (std::int32_t j = 1; j < k; ++j) {
    const std::int64_t start = global.group_start(0, j);
    const std::int64_t length = global.group_length(0, j);
    for (std::int64_t q = 0; q < length; ++q) {
      const std::int64_t p = start + q;
      const std::int32_t sender = rotate_sender_at(m0, sizes[j], q);
      const auto receiver =
          static_cast<std::int32_t>(positive_mod(p - P, sizes[j]));
      AAPC_CHECK_MSG(t0_sender[static_cast<std::size_t>(p)] == -1,
                     "t0 groups overlap at phase " << p);
      t0_sender[static_cast<std::size_t>(p)] = sender;
      builder.add(p, rank_at(0, sender), rank_at(j, receiver));
    }
  }
  for (std::int64_t p = 0; p < P; ++p) {
    AAPC_CHECK_MSG(t0_sender[static_cast<std::size_t>(p)] != -1,
                   "t0 groups leave phase " << p << " uncovered");
  }

  // ---- Step 2: ti -> t0 (Table-3 receivers, broadcast senders). ----
  // t0_receiver[p]: index within t0 receiving a global message at phase
  // p. The groups t(k-1) -> t0, ..., t1 -> t0 tile [0, P) exactly.
  std::vector<std::int32_t> t0_receiver(static_cast<std::size_t>(P), -1);
  for (std::int32_t i = 1; i < k; ++i) {
    const std::int64_t start = global.group_start(i, 0);
    const std::int64_t length = global.group_length(i, 0);
    AAPC_CHECK_MSG(start % m0 == 0,
                   "group t" << i << "->t0 is not round-aligned");
    for (std::int64_t q = 0; q < length; ++q) {
      const std::int64_t p = start + q;
      const auto sender = static_cast<std::int32_t>(q / m0);  // broadcast
      const std::int64_t round = p / m0;
      const auto shift = static_cast<std::int32_t>(round % m0) + 1;
      const auto receiver = static_cast<std::int32_t>(
          positive_mod(t0_sender[static_cast<std::size_t>(p)] + shift, m0));
      AAPC_CHECK_MSG(t0_receiver[static_cast<std::size_t>(p)] == -1,
                     "ti->t0 groups overlap at phase " << p);
      t0_receiver[static_cast<std::size_t>(p)] = receiver;
      builder.add(p, rank_at(i, sender), rank_at(0, receiver));
    }
  }
  for (std::int64_t p = 0; p < P; ++p) {
    AAPC_CHECK_MSG(t0_receiver[static_cast<std::size_t>(p)] != -1,
                   "ti->t0 groups leave phase " << p << " uncovered");
  }

  // ---- Step 3: locals in t0 within the first |M0|*(|M0|-1) phases. ----
  {
    std::vector<char> done(static_cast<std::size_t>(m0) * m0, 0);
    for (std::int64_t p = 0; p < static_cast<std::int64_t>(m0) * (m0 - 1);
         ++p) {
      const std::int32_t src = t0_receiver[static_cast<std::size_t>(p)];
      const std::int32_t dst = t0_sender[static_cast<std::size_t>(p)];
      AAPC_CHECK_MSG(src != dst, "Table-3 mapping yielded src == dst in the "
                                     << "first |M0|*(|M0|-1) phases at " << p);
      char& seen = done[static_cast<std::size_t>(src) * m0 + dst];
      AAPC_CHECK_MSG(!seen, "duplicate t0 local " << src << "->" << dst);
      seen = 1;
      builder.add(p, rank_at(0, src), rank_at(0, dst));
    }
    for (std::int32_t a = 0; a < m0; ++a) {
      for (std::int32_t b = 0; b < m0; ++b) {
        if (a != b) {
          AAPC_CHECK_MSG(done[static_cast<std::size_t>(a) * m0 + b],
                         "t0 local " << a << "->" << b << " unscheduled");
        }
      }
    }
  }

  // ---- Step 4: ti -> tj, i > j >= 1 (broadcast, aligned receivers). ----
  for (std::int32_t i = 2; i < k; ++i) {
    for (std::int32_t j = 1; j < i; ++j) {
      const std::int64_t start = global.group_start(i, j);
      const std::int64_t length = global.group_length(i, j);
      for (std::int64_t q = 0; q < length; ++q) {
        const std::int64_t p = start + q;
        const auto sender = static_cast<std::int32_t>(q / sizes[j]);
        const auto receiver = static_cast<std::int32_t>(q % sizes[j]);
        // Receiver-alignment invariant Step 5 relies on (§4.3).
        AAPC_CHECK_MSG(receiver == positive_mod(p - P, sizes[j]),
                       "step-4 receiver misaligned at phase " << p);
        builder.add(p, rank_at(i, sender), rank_at(j, receiver));
      }
    }
  }

  // ---- Step 5: locals in ti embedded in the ti -> t(i-1) span. ----
  for (std::int32_t i = 1; i < k; ++i) {
    const std::int32_t mi = sizes[i];
    if (mi <= 1) continue;
    const std::int32_t mprev = sizes[i - 1];
    const std::int64_t start = global.group_start(i, i - 1);
    const std::int64_t length = global.group_length(i, i - 1);
    std::vector<char> done(static_cast<std::size_t>(mi) * mi, 0);
    std::int32_t scheduled = 0;
    for (std::int64_t q = 0; q < length; ++q) {
      const std::int64_t p = start + q;
      // Global sender within ti (broadcast over |M(i-1)|-phase spans).
      const auto gsend = static_cast<std::int32_t>(q / mprev);
      // Designated receiver within ti at phase p.
      const auto drecv = static_cast<std::int32_t>(positive_mod(p - P, mi));
      if (gsend == drecv) continue;
      char& seen = done[static_cast<std::size_t>(drecv) * mi + gsend];
      if (seen) continue;
      seen = 1;
      ++scheduled;
      builder.add(p, rank_at(i, drecv), rank_at(i, gsend));
    }
    AAPC_CHECK_MSG(scheduled == mi * (mi - 1),
                   "subtree t" << i << " embedded only " << scheduled << "/"
                               << mi * (mi - 1) << " local messages");
  }

  // ---- Step 6: ti -> tj, 0 < i < j (pattern choice is free). ----
  for (std::int32_t i = 1; i < k; ++i) {
    for (std::int32_t j = i + 1; j < k; ++j) {
      const std::int64_t start = global.group_start(i, j);
      const std::vector<PatternEntry> pattern =
          options.step6 == AssignmentOptions::Step6Pattern::kBroadcast
              ? broadcast_pattern(sizes[i], sizes[j])
              : rotate_pattern(sizes[i], sizes[j]);
      for (std::size_t q = 0; q < pattern.size(); ++q) {
        builder.add(start + static_cast<std::int64_t>(q),
                    rank_at(i, pattern[q].sender),
                    rank_at(j, pattern[q].receiver));
      }
    }
  }

  AAPC_CHECK_MSG(builder.staged_count() == machine_total * (machine_total - 1),
                 "schedule holds " << builder.staged_count() << " of "
                                   << machine_total * (machine_total - 1)
                                   << " AAPC messages");
  return std::move(builder).build(P);
}

}  // namespace aapc::core
