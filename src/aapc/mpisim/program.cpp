#include "aapc/mpisim/program.hpp"

#include <sstream>

#include "aapc/common/error.hpp"

namespace aapc::mpisim {

std::int32_t Program::request_count() const {
  std::int32_t count = 0;
  for (const Op& op : ops) {
    if (op.is_post()) ++count;
  }
  return count;
}

std::string Program::to_string(const ProgramSet& set, Rank rank) const {
  std::ostringstream os;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kIsend:
        os << "isend(peer=" << op.peer << ", bytes=" << set.bytes(rank, op)
           << ", tag=" << op.tag() << ")\n";
        break;
      case OpKind::kIrecv:
        os << "irecv(peer=" << op.peer << ", bytes=" << set.bytes(rank, op)
           << ", tag=" << op.tag() << ")\n";
        break;
      case OpKind::kWait:
        os << "wait(" << op.request() << ")\n";
        break;
      case OpKind::kWaitAll:
        os << "waitall()\n";
        break;
      case OpKind::kBarrier:
        os << "barrier()\n";
        break;
      case OpKind::kCopy:
        os << "copy(bytes=" << set.bytes(rank, op) << ")\n";
        break;
    }
  }
  return os.str();
}

std::vector<Bytes> pair_table(const std::vector<Bytes>& size_matrix) {
  std::vector<Bytes> table;
  table.reserve(size_matrix.size());
  for (const Bytes bytes : size_matrix) {
    table.push_back(bytes > 0 ? bytes : Bytes{1});
  }
  return table;
}

ProgramSet relabel_program_set(const ProgramSet& set,
                               const std::vector<Rank>& perm) {
  const auto n = static_cast<Rank>(perm.size());
  AAPC_REQUIRE(set.rank_count() == n,
               "program set has " << set.rank_count() << " ranks but the "
                                  << "permutation covers " << n);
  std::vector<Rank> inverse(perm.size(), -1);
  for (Rank r = 0; r < n; ++r) {
    const Rank image = perm[static_cast<std::size_t>(r)];
    AAPC_REQUIRE(image >= 0 && image < n,
                 "permutation entry " << image << " out of range [0," << n
                                      << ")");
    AAPC_REQUIRE(inverse[static_cast<std::size_t>(image)] == -1,
                 "permutation maps two ranks to " << image);
    inverse[static_cast<std::size_t>(image)] = r;
  }
  ProgramSet out;
  out.name = set.name;
  out.data_bytes = set.data_bytes;
  out.token_bytes = set.token_bytes;
  if (!set.pair_bytes.empty()) {
    const auto ranks = static_cast<std::size_t>(n);
    AAPC_REQUIRE(set.pair_bytes.size() == ranks * ranks,
                 "pair table has " << set.pair_bytes.size()
                                   << " entries for " << n << " ranks");
    out.pair_bytes.resize(set.pair_bytes.size());
    for (std::size_t src = 0; src < ranks; ++src) {
      const auto row = static_cast<std::size_t>(perm[src]) * ranks;
      for (std::size_t dst = 0; dst < ranks; ++dst) {
        out.pair_bytes[row + static_cast<std::size_t>(perm[dst])] =
            set.pair_bytes[src * ranks + dst];
      }
    }
  }
  out.programs.resize(set.programs.size());
  for (Rank r = 0; r < n; ++r) {
    const Program& source =
        set.programs[static_cast<std::size_t>(inverse[static_cast<std::size_t>(r)])];
    Program& target = out.programs[static_cast<std::size_t>(r)];
    target.ops = source.ops;
    for (Op& op : target.ops) {
      if (op.is_post()) op.peer = perm[static_cast<std::size_t>(op.peer)];
    }
  }
  return out;
}

}  // namespace aapc::mpisim
