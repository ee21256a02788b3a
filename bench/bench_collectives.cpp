// Collective-portfolio gate: runs every CollectiveKind end-to-end
// (build -> verify -> lower -> fluid execution) on the paper's
// topologies (a), (b), (c) plus a fat-tree fabric, and compares the
// achieved completion time against the kind's bandwidth bound under
// the calibrated network model: per phase, a contention-free flow is
// limited by the effective link rate (protocol efficiency), the
// end-host duplex cap when its machine both sends and receives, and
// the switch fabric cap shared by every flow traversing the switch —
// the same three capacity rows the fluid simulator enforces. Summing
// msize over the per-phase rate gives T_min; anything below it is
// physically unreachable, so the bound is tight exactly when the
// schedule wastes no bandwidth. The ring kinds are built to be
// bandwidth-optimal and must achieve ratio = T_min / T >= 0.95 on
// (a)-(c); the fat tree and the greedy sparse arm are reported without
// a throughput gate. Delivery integrity (exactly-once, via the
// DeliveryLedger) is asserted on every run. Exits nonzero when any
// gate fails.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using aapc::Bytes;
using aapc::core::CollectiveKind;
using aapc::core::Schedule;
using aapc::core::SparseNeighbors;
using aapc::topology::Rank;
using aapc::topology::Topology;

struct Row {
  std::string topology;
  std::string kind;
  std::int32_t machines = 0;
  std::int64_t phases = 0;
  std::int64_t bound_phases = 0;
  double tmin_s = 0;
  double completion_s = 0;
  double ratio = 0;
  bool gated = false;
  bool pass = true;
};

/// Lower bound on the completion time of `schedule` under the fluid
/// model's capacity rows, assuming every flow of a phase runs at the
/// same rate (exact for the symmetric ring/alltoall phases): per phase
///   r = min(eff,  2*eff*duplex / flows(machine),
///                 eff*fabric_links / flows(switch))
/// over every machine touched and switch traversed, then
/// T_min = sum_p msize / r_p.
double model_bound_seconds(const Topology& topo,
                           const aapc::simnet::NetworkParams& net,
                           const Schedule& schedule, Bytes msize) {
  const double eff = net.effective_bandwidth();
  std::vector<aapc::topology::EdgeId> path;
  std::vector<std::int64_t> node_flows(
      static_cast<std::size_t>(topo.node_count()), 0);
  double total = 0;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    std::fill(node_flows.begin(), node_flows.end(), 0);
    for (const aapc::core::Message& m : schedule.phase(p)) {
      const aapc::topology::NodeId src = topo.machine_node(m.src);
      const aapc::topology::NodeId dst = topo.machine_node(m.dst);
      ++node_flows[static_cast<std::size_t>(src)];
      ++node_flows[static_cast<std::size_t>(dst)];
      topo.path_into(src, dst, path);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ++node_flows[static_cast<std::size_t>(topo.edge_target(path[i]))];
      }
    }
    double rate = eff;
    for (aapc::topology::NodeId node = 0; node < topo.node_count(); ++node) {
      const auto flows =
          static_cast<double>(node_flows[static_cast<std::size_t>(node)]);
      if (flows <= 0) continue;
      const double cap = topo.is_machine(node)
                             ? 2.0 * eff * net.duplex_efficiency
                             : eff * net.switch_fabric_links;
      if (cap / flows < rate) rate = cap / flows;
    }
    total += static_cast<double>(msize) / rate;
  }
  return total;
}

SparseNeighbors halo_ring(std::int32_t n) {
  SparseNeighbors neighbors(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
  }
  return neighbors;
}

}  // namespace

int main(int argc, char** argv) {
  aapc::CliParser cli(
      "Collective portfolio vs per-kind bandwidth bounds on topologies "
      "(a)-(c) and a fat tree.");
  cli.add_flag("msize", "message size per block", "256K");
  cli.add_flag("bandwidth-mbps", "link bandwidth in Mbps", "100");
  cli.add_flag("gate", "minimum T_min/T ratio for the ring kinds on (a)-(c)",
               "0.95");
  Bytes msize = 0;
  double bandwidth = 0;
  double gate = 0;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    msize = cli.get_u64("msize", 256 * 1024);
    bandwidth =
        aapc::mbps_to_bytes_per_sec(cli.get_double("bandwidth-mbps", 100.0));
    AAPC_REQUIRE(bandwidth > 0, "--bandwidth-mbps must be above 0");
    gate = cli.get_double("gate", 0.95);
  } catch (const aapc::InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  struct Fixture {
    std::string name;
    Topology topo;
    bool gated;  // the bandwidth-optimality gate applies to ring kinds
  };
  const std::vector<Fixture> fixtures{
      {"(a) 24x1 switch", aapc::topology::make_paper_topology_a(), true},
      {"(b) 4x8 star", aapc::topology::make_paper_topology_b(), true},
      {"(c) 2-level tree", aapc::topology::make_paper_topology_c(), true},
      {"fat tree 2x2x4", aapc::topology::make_fat_tree(2, 2, 4), false},
  };

  bool all_pass = true;
  std::vector<Row> rows;
  for (const Fixture& fixture : fixtures) {
    const Topology& topo = fixture.topo;
    const std::int32_t n = topo.machine_count();
    const SparseNeighbors sparse = halo_ring(n);
    struct Arm {
      CollectiveKind kind;
      Schedule schedule;
    };
    const std::vector<Arm> arms{
        {CollectiveKind::kAlltoall, aapc::core::build_aapc_schedule(topo)},
        {CollectiveKind::kAllgather,
         aapc::core::build_allgather_schedule(topo)},
        {CollectiveKind::kReduceScatter,
         aapc::core::build_reduce_scatter_schedule(topo)},
        {CollectiveKind::kSparseAlltoall,
         aapc::core::build_sparse_alltoall_schedule(topo, sparse)},
    };
    for (const Arm& arm : arms) {
      Row row;
      row.topology = fixture.name;
      row.kind = aapc::core::collective_kind_name(arm.kind);
      row.machines = n;
      row.phases = arm.schedule.phase_count();
      const SparseNeighbors& neighbors =
          arm.kind == CollectiveKind::kSparseAlltoall ? sparse
                                                      : SparseNeighbors{};
      row.bound_phases =
          aapc::core::collective_phase_lower_bound(topo, arm.kind, neighbors);
      const aapc::core::VerifyReport verdict =
          aapc::core::verify_collective_schedule(topo, arm.schedule,
                                                 neighbors);
      if (!verdict.ok) {
        std::cerr << row.topology << " " << row.kind
                  << ": schedule failed verification: " << verdict.summary()
                  << '\n';
        row.pass = false;
        all_pass = false;
        rows.push_back(row);
        continue;
      }

      const aapc::mpisim::ProgramSet programs =
          aapc::lowering::lower_schedule(topo, arm.schedule, msize);
      aapc::simnet::NetworkParams net;
      net.link_bandwidth_bytes_per_sec = bandwidth;
      aapc::mpisim::ExecutorParams exec;
      exec.wakeup_jitter_max = 0;
      aapc::mpisim::Executor executor(topo, net, exec);
      const aapc::mpisim::ExecutionResult result = executor.run(programs);
      if (!result.integrity.ok() ||
          result.integrity.expected != result.message_count) {
        std::cerr << row.topology << " " << row.kind
                  << ": delivery audit failed: " << result.integrity.summary()
                  << '\n';
        row.pass = false;
        all_pass = false;
        rows.push_back(row);
        continue;
      }

      // Bandwidth bound under the calibrated model: per-phase rate
      // capped by link efficiency, end-host duplex, and switch fabric
      // capacity — the same rows the fluid simulator enforces.
      row.tmin_s = model_bound_seconds(topo, net, arm.schedule, msize);
      row.completion_s = result.completion_time;
      row.ratio = row.completion_s > 0 ? row.tmin_s / row.completion_s : 0;
      row.gated = fixture.gated &&
                  (arm.kind == CollectiveKind::kAllgather ||
                   arm.kind == CollectiveKind::kReduceScatter);
      if (row.gated && row.ratio < gate) {
        row.pass = false;
        all_pass = false;
      }
      rows.push_back(row);
    }
  }

  std::cout << "collective portfolio @ msize=" << msize
            << " B, link=" << bandwidth << " B/s (gate " << gate
            << " on ring kinds, topologies (a)-(c))\n";
  std::cout << "{\"msize\":" << msize << ",\"gate\":" << gate
            << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::cout << (i == 0 ? "" : ",") << "\n  {\"topology\":\"" << row.topology
              << "\",\"kind\":\"" << row.kind
              << "\",\"machines\":" << row.machines
              << ",\"phases\":" << row.phases
              << ",\"bound_phases\":" << row.bound_phases
              << ",\"tmin_s\":" << row.tmin_s
              << ",\"completion_s\":" << row.completion_s
              << ",\"ratio\":" << row.ratio
              << ",\"gated\":" << (row.gated ? "true" : "false")
              << ",\"pass\":" << (row.pass ? "true" : "false") << "}";
  }
  std::cout << "\n]}\n";
  if (!all_pass) {
    std::cerr << "FAIL: at least one arm missed its gate\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}
