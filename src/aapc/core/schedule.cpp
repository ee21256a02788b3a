#include "aapc/core/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"

namespace aapc::core {

const char* collective_kind_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAlltoall:
      return "alltoall";
    case CollectiveKind::kAllgather:
      return "allgather";
    case CollectiveKind::kReduceScatter:
      return "reduce_scatter";
    case CollectiveKind::kSparseAlltoall:
      return "sparse_alltoall";
  }
  return "unknown";
}

CollectiveKind parse_collective_kind(std::string_view name) {
  if (name == "alltoall") return CollectiveKind::kAlltoall;
  if (name == "allgather") return CollectiveKind::kAllgather;
  if (name == "reduce_scatter") return CollectiveKind::kReduceScatter;
  if (name == "sparse_alltoall") return CollectiveKind::kSparseAlltoall;
  throw InvalidArgument("unknown collective kind '" + std::string(name) +
                        "' (want alltoall, allgather, reduce_scatter, or "
                        "sparse_alltoall)");
}

bool collective_kind_valid(std::uint8_t raw) {
  return raw <= static_cast<std::uint8_t>(CollectiveKind::kSparseAlltoall);
}

PhaseSpan Schedule::phase(std::int32_t p) const {
  AAPC_REQUIRE(p >= 0 && p < phase_count(),
               "phase " << p << " out of range [0," << phase_count() << ")");
  const auto begin = static_cast<std::size_t>(phase_begin[p]);
  const auto end = static_cast<std::size_t>(phase_begin[p + 1]);
  return PhaseSpan(messages.data() + begin, end - begin);
}

std::int64_t Schedule::phase_size(std::int32_t p) const {
  AAPC_REQUIRE(p >= 0 && p < phase_count(),
               "phase " << p << " out of range [0," << phase_count() << ")");
  return phase_begin[p + 1] - phase_begin[p];
}

std::int32_t Schedule::phase_of(std::int64_t i) const {
  AAPC_REQUIRE(i >= 0 && i < message_count(),
               "message " << i << " out of range [0," << message_count()
                          << ")");
  // The phase of the last offset <= i: an empty phase shares its
  // offset with the next one, so the last such offset is the nonempty one.
  const auto after =
      std::upper_bound(phase_begin.begin(), phase_begin.end(), i);
  return static_cast<std::int32_t>(after - phase_begin.begin()) - 1;
}

Schedule Schedule::from_phase_lists(
    const std::vector<std::vector<Message>>& lists) {
  Schedule out;
  out.phase_begin.assign(lists.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t p = 0; p < lists.size(); ++p) {
    total += lists[p].size();
    out.phase_begin[p + 1] = static_cast<std::int64_t>(total);
  }
  out.messages.reserve(total);
  for (const std::vector<Message>& list : lists) {
    out.messages.insert(out.messages.end(), list.begin(), list.end());
  }
  return out;
}

std::vector<std::vector<Message>> Schedule::phase_lists() const {
  std::vector<std::vector<Message>> lists(
      static_cast<std::size_t>(phase_count()));
  for (std::int32_t p = 0; p < phase_count(); ++p) {
    const PhaseSpan span = phase(p);
    lists[static_cast<std::size_t>(p)].assign(span.begin(), span.end());
  }
  return lists;
}

std::string Schedule::to_string(const topology::Topology& topo) const {
  std::ostringstream os;
  for (std::int32_t p = 0; p < phase_count(); ++p) {
    os << "phase " << p << ":";
    for (const Message& m : phase(p)) {
      os << ' ' << topo.name(topo.machine_node(m.src)) << "->"
         << topo.name(topo.machine_node(m.dst));
    }
    os << '\n';
  }
  return os.str();
}

void ScheduleBuilder::add(std::int64_t phase, Rank src, Rank dst) {
  AAPC_CHECK(phase >= 0);
  AAPC_CHECK(src != dst);
  staged_.push_back(Message{src, dst});
  phases_.push_back(static_cast<std::int32_t>(phase));
}

Schedule ScheduleBuilder::build(std::int64_t total_phases) && {
  AAPC_REQUIRE(total_phases >= 0, "negative phase count");
  Schedule out;
  out.phase_begin.assign(static_cast<std::size_t>(total_phases) + 1, 0);
  for (const std::int32_t phase : phases_) {
    AAPC_REQUIRE(phase < total_phases,
                 "staged message phase " << phase << " out of range [0,"
                                         << total_phases << ")");
    out.phase_begin[static_cast<std::size_t>(phase) + 1] += 1;
  }
  for (std::size_t p = 1; p < out.phase_begin.size(); ++p) {
    out.phase_begin[p] += out.phase_begin[p - 1];
  }
  // Stable counting sort: a running cursor per phase preserves staged
  // order within a phase.
  std::vector<std::int64_t> cursor(out.phase_begin.begin(),
                                   out.phase_begin.end() - 1);
  out.messages.resize(staged_.size());
  for (std::size_t k = 0; k < staged_.size(); ++k) {
    out.messages[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(phases_[k])]++)] = staged_[k];
  }
  return out;
}

std::vector<Rank> invert_permutation(const std::vector<Rank>& perm) {
  const auto n = static_cast<Rank>(perm.size());
  std::vector<Rank> inverse(perm.size(), -1);
  for (Rank i = 0; i < n; ++i) {
    const Rank image = perm[static_cast<std::size_t>(i)];
    AAPC_REQUIRE(image >= 0 && image < n,
                 "permutation entry " << image << " out of range [0," << n
                                      << ")");
    AAPC_REQUIRE(inverse[static_cast<std::size_t>(image)] == -1,
                 "permutation maps two ranks to " << image);
    inverse[static_cast<std::size_t>(image)] = i;
  }
  return inverse;
}

Schedule relabel_schedule(const Schedule& schedule,
                          const std::vector<Rank>& perm) {
  // Validate once up front (also proves perm is a bijection).
  invert_permutation(perm);
  const auto n = static_cast<Rank>(perm.size());
  auto map_rank = [&](Rank r) -> Rank {
    AAPC_REQUIRE(r >= 0 && r < n,
                 "schedule rank " << r << " not covered by the "
                                  << "relabeling permutation (size " << n
                                  << ")");
    return perm[static_cast<std::size_t>(r)];
  };
  Schedule out;
  out.phase_begin = schedule.phase_begin;
  out.kind = schedule.kind;
  out.messages.reserve(schedule.messages.size());
  for (const Message& m : schedule.messages) {
    out.messages.push_back(Message{map_rank(m.src), map_rank(m.dst)});
  }
  return out;
}

}  // namespace aapc::core
