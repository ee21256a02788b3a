// Rank programs: the executable form of a communication algorithm.
//
// Every AAPC implementation in this repo — the generated routine, the
// LAM/MPI baseline, the MPICH baselines — is expressed as one static
// operation list per rank, mirroring how the paper's routine generator
// emits code built from MPI point-to-point primitives (§5). A static
// representation keeps the simulation deterministic and doubles as the
// input of the C code generator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::mpisim {

using topology::Rank;

/// Message tag. Data messages use the algorithm's tag space; programs
/// built by this repo reserve kSyncTag for pair-wise synchronization.
using Tag = std::int32_t;
inline constexpr Tag kSyncTag = 1 << 20;

/// Request handle: index into the issuing rank's request table, in
/// posting order (0 = first ISEND/IRECV posted by that rank).
using RequestId = std::int32_t;

enum class OpKind : std::uint8_t {
  kIsend,    // post nonblocking send(peer, tag)
  kIrecv,    // post nonblocking recv(peer, tag)
  kWait,     // block until request `request` completes
  kWaitAll,  // block until every request posted so far completes
  kBarrier,  // block until all ranks reach their matching barrier
  kCopy,     // local memcpy of the rank's own AAPC block
};

/// One operation: 12 bytes. A post carries a tag and a wait a request,
/// never both, so one field holds either. Sizes are not stored here:
/// they come from the program set (ProgramSet::bytes).
struct Op {
  OpKind kind;
  Rank peer = -1;         // kIsend/kIrecv
  std::int32_t arg = 0;   // kIsend/kIrecv: the tag; kWait: the request

  bool is_post() const {
    return kind == OpKind::kIsend || kind == OpKind::kIrecv;
  }
  /// The post's tag; 0 for any other op.
  Tag tag() const { return is_post() ? arg : 0; }
  /// The wait's request; -1 for any other op.
  RequestId request() const { return kind == OpKind::kWait ? arg : -1; }

  static Op isend(Rank peer, Tag tag) { return Op{OpKind::kIsend, peer, tag}; }
  static Op irecv(Rank peer, Tag tag) { return Op{OpKind::kIrecv, peer, tag}; }
  static Op wait(RequestId request) {
    return Op{OpKind::kWait, -1, request};
  }
  static Op wait_all() { return Op{OpKind::kWaitAll, -1, 0}; }
  static Op barrier() { return Op{OpKind::kBarrier, -1, 0}; }
  static Op copy() { return Op{OpKind::kCopy, -1, 0}; }
};
static_assert(sizeof(Op) == 12);

struct ProgramSet;

/// One rank's operation list.
struct Program {
  std::vector<Op> ops;

  /// Number of requests this program posts (isend + irecv count).
  std::int32_t request_count() const;

  /// One line per op; sizes are read from `set` as rank `rank`'s.
  std::string to_string(const ProgramSet& set, Rank rank) const;
};

/// An algorithm instance: one program per rank, a display name, and the
/// message sizes of the whole set. As in MPI_Alltoall (one count) and
/// MPI_Alltoallv (one count per pair), a size is given once for the set,
/// not carried by every op.
struct ProgramSet {
  std::string name;
  std::vector<Program> programs;  // index == rank
  /// Size of every data message and of each rank's copy of its own
  /// block, unless `pair_bytes` is set.
  Bytes data_bytes = 0;
  /// Size of every synchronization token (a post tagged >= kSyncTag).
  Bytes token_bytes = 0;
  /// Alltoallv-style sets only: row-major ranks x ranks data sizes,
  /// entry [src * ranks + dst] (the diagonal is the copy), zero entries
  /// already mapped to 1 byte. Empty for every other set.
  std::vector<Bytes> pair_bytes;

  std::int32_t rank_count() const {
    return static_cast<std::int32_t>(programs.size());
  }

  /// The size rule: the bytes `op` of rank `rank` moves. A token reads
  /// token_bytes; a data post reads its (sender, receiver) pair and a
  /// copy the pair (rank, rank), from pair_bytes when the set has one,
  /// else data_bytes. 0 for ops that move nothing.
  Bytes bytes(Rank rank, const Op& op) const {
    if (!op.is_post() && op.kind != OpKind::kCopy) return 0;
    if (op.tag() >= kSyncTag) return token_bytes;
    if (pair_bytes.empty()) return data_bytes;
    const Rank src = op.kind == OpKind::kIrecv ? op.peer : rank;
    const Rank dst = op.kind == OpKind::kIsend ? op.peer : rank;
    return pair_bytes[static_cast<std::size_t>(src) * programs.size() +
                      static_cast<std::size_t>(dst)];
  }
};

/// The pair table of an Alltoallv-style set from its row-major size
/// matrix. Zero entries become 1 byte: the executor models flows, not
/// buffers, so an empty slot still matches and synchronizes as a
/// minimal message, as in a real Alltoallv.
std::vector<Bytes> pair_table(const std::vector<Bytes>& size_matrix);

/// Rewrites a program set through a rank permutation: the program of rank
/// r in the result is the program of rank perm⁻¹(r) in `set`, with every
/// op's peer rank mapped through `perm` and the pair table, if any,
/// permuted the same way. Request ids and tags are untouched (they are
/// rank-local). Used by the schedule-compilation service to map
/// programs lowered on a canonical topology back into the caller's rank
/// labeling; when `perm` comes from a tree isomorphism the relabeled
/// set executes identically (same paths, same contention structure).
ProgramSet relabel_program_set(const ProgramSet& set,
                               const std::vector<Rank>& perm);

}  // namespace aapc::mpisim
