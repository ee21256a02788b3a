#include "aapc/baselines/baselines.hpp"

#include "aapc/common/error.hpp"

namespace aapc::baselines {

using mpisim::Op;
using mpisim::Program;
using mpisim::ProgramSet;
using topology::Rank;

namespace {

constexpr mpisim::Tag kDataTag = 0;

/// Common shape of LAM's and MPICH's nonblocking algorithms: post all
/// receives, post all sends in `send_order`, wait for everything.
Program post_all_program(Rank me, std::int32_t ranks,
                         const std::vector<Rank>& send_order) {
  Program program;
  program.ops.push_back(Op::copy());
  // Receives are posted first (both LAM and MPICH prepost receives so
  // eager/rendezvous traffic finds a posted buffer).
  for (std::int32_t step = 0; step < ranks; ++step) {
    const Rank peer = send_order[static_cast<std::size_t>(step)];
    if (peer == me) continue;
    program.ops.push_back(Op::irecv(peer, kDataTag));
  }
  for (std::int32_t step = 0; step < ranks; ++step) {
    const Rank peer = send_order[static_cast<std::size_t>(step)];
    if (peer == me) continue;
    program.ops.push_back(Op::isend(peer, kDataTag));
  }
  program.ops.push_back(Op::wait_all());
  return program;
}

}  // namespace

ProgramSet lam_alltoallv(std::int32_t ranks,
                         const std::vector<Bytes>& size_matrix) {
  AAPC_REQUIRE(ranks >= 1, "need at least one rank");
  AAPC_REQUIRE(size_matrix.size() ==
                   static_cast<std::size_t>(ranks) * ranks,
               "size matrix must be " << ranks << " x " << ranks);
  // LAM's programs; the pair table replaces its one size.
  ProgramSet set = lam_alltoall(ranks, 0);
  set.name = "LAM-v";
  set.pair_bytes = mpisim::pair_table(size_matrix);
  return set;
}

bool is_power_of_two(std::int32_t value) {
  return value > 0 && (value & (value - 1)) == 0;
}

ProgramSet lam_alltoall(std::int32_t ranks, Bytes msize) {
  AAPC_REQUIRE(ranks >= 1, "need at least one rank");
  ProgramSet set;
  set.name = "LAM";
  set.data_bytes = msize;
  for (Rank me = 0; me < ranks; ++me) {
    // Order i->0, i->1, ..., i->N-1.
    std::vector<Rank> order(static_cast<std::size_t>(ranks));
    for (std::int32_t j = 0; j < ranks; ++j) order[j] = j;
    set.programs.push_back(post_all_program(me, ranks, order));
  }
  return set;
}

ProgramSet mpich_ordered_alltoall(std::int32_t ranks, Bytes msize) {
  AAPC_REQUIRE(ranks >= 1, "need at least one rank");
  ProgramSet set;
  set.name = "MPICH-ordered";
  set.data_bytes = msize;
  for (Rank me = 0; me < ranks; ++me) {
    // Order i->i+1, i->i+2, ..., i->(i+N-1) mod N.
    std::vector<Rank> order;
    order.reserve(static_cast<std::size_t>(ranks));
    for (std::int32_t j = 1; j <= ranks; ++j) {
      order.push_back((me + j) % ranks);
    }
    set.programs.push_back(post_all_program(me, ranks, order));
  }
  return set;
}

ProgramSet mpich_pairwise_alltoall(std::int32_t ranks, Bytes msize) {
  AAPC_REQUIRE(is_power_of_two(ranks),
               "pairwise exchange requires a power-of-two rank count, got "
                   << ranks);
  ProgramSet set;
  set.name = "MPICH-pairwise";
  set.data_bytes = msize;
  for (Rank me = 0; me < ranks; ++me) {
    Program program;
    program.ops.push_back(Op::copy());
    mpisim::RequestId next = 0;
    for (std::int32_t j = 1; j < ranks; ++j) {
      const Rank peer = me ^ j;
      // Blocking sendrecv: post both, wait both, then the next step.
      program.ops.push_back(Op::irecv(peer, kDataTag));
      const mpisim::RequestId recv = next++;
      program.ops.push_back(Op::isend(peer, kDataTag));
      const mpisim::RequestId send = next++;
      program.ops.push_back(Op::wait(recv));
      program.ops.push_back(Op::wait(send));
    }
    set.programs.push_back(std::move(program));
  }
  return set;
}

ProgramSet mpich_ring_alltoall(std::int32_t ranks, Bytes msize) {
  AAPC_REQUIRE(ranks >= 1, "need at least one rank");
  ProgramSet set;
  set.name = "MPICH-ring";
  set.data_bytes = msize;
  for (Rank me = 0; me < ranks; ++me) {
    Program program;
    program.ops.push_back(Op::copy());
    mpisim::RequestId next = 0;
    for (std::int32_t j = 1; j < ranks; ++j) {
      const Rank to = (me + j) % ranks;
      const Rank from = (me - j % ranks + ranks) % ranks;
      program.ops.push_back(Op::irecv(from, kDataTag));
      const mpisim::RequestId recv = next++;
      program.ops.push_back(Op::isend(to, kDataTag));
      const mpisim::RequestId send = next++;
      program.ops.push_back(Op::wait(recv));
      program.ops.push_back(Op::wait(send));
    }
    set.programs.push_back(std::move(program));
  }
  return set;
}

ProgramSet mpich_alltoall(std::int32_t ranks, Bytes msize) {
  // §6: ordered nonblocking up to 32 KB; beyond that pairwise for
  // power-of-two node counts, ring otherwise. (Real MPICH uses Bruck
  // below 256 B; the paper's sweep starts at 8 KB so the ordered
  // algorithm covers the small end here.)
  if (msize <= 32768) {
    ProgramSet set = mpich_ordered_alltoall(ranks, msize);
    set.name = "MPICH";
    return set;
  }
  ProgramSet set = is_power_of_two(ranks)
                       ? mpich_pairwise_alltoall(ranks, msize)
                       : mpich_ring_alltoall(ranks, msize);
  set.name = "MPICH";
  return set;
}

}  // namespace aapc::baselines
