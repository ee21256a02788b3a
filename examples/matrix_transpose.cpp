// Matrix transpose — the paper's motivating workload class (§1: AAPC
// "appears in many high performance applications, including matrix
// transpose, multi-dimensional convolution, and data redistribution").
//
// A dense N x N matrix of doubles is row-partitioned over the cluster's
// machines. Transposing it requires every machine to send a distinct
// block to every other machine: exactly MPI_Alltoall with
// msize = (N/P)^2 * 8 bytes. This example sweeps matrix sizes on the
// paper's chain topology (c) and reports transpose time under LAM,
// MPICH, and the generated routine.
//
// Run:  ./matrix_transpose [--matrix-sizes 1024,2048,4096] [--paper c]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/topology/generators.hpp"

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli("Distributed matrix transpose via AAPC.");
  cli.add_flag("matrix-sizes", "comma-separated N for N x N matrices",
               "1024,2048,4096,8192");
  cli.add_flag("paper", "topology: a, b, or c", "c");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  // A block of (N/P)^2 doubles must count its bytes in 64 bits.
  constexpr std::uint64_t kMaxN = std::uint64_t{1} << 30;
  std::string which;
  std::vector<std::int64_t> sizes;
  try {
    which = cli.get("paper");
    AAPC_REQUIRE(which == "a" || which == "b" || which == "c",
                 "--paper expects a, b or c, got '" << which << "'");
    for (const std::string& token : split(cli.get("matrix-sizes"), ',')) {
      const std::uint64_t n = parse_u64(token);
      AAPC_REQUIRE(n <= kMaxN,
                   "--matrix-sizes: " << n << " is above " << kMaxN);
      sizes.push_back(static_cast<std::int64_t>(n));
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  const topology::Topology topo =
      which == "a"   ? topology::make_paper_topology_a()
      : which == "b" ? topology::make_paper_topology_b()
                     : topology::make_paper_topology_c();
  const std::int64_t machines = topo.machine_count();

  std::cout << "transposing N x N doubles over " << machines
            << " machines on paper topology (" << which << ")\n"
            << "block per machine pair: (N/P)^2 * 8 bytes\n\n";

  const auto suite = harness::standard_suite(topo);
  harness::ExperimentConfig config;

  TextTable table;
  table.set_header({"N", "block", "LAM", "MPICH", "Ours", "best"});
  for (const std::int64_t n : sizes) {
    const std::int64_t rows_per_machine = n / machines;
    if (rows_per_machine == 0) {
      std::cerr << "skipping N=" << n << " (fewer rows than machines)\n";
      continue;
    }
    const Bytes block_bytes = static_cast<Bytes>(
        rows_per_machine * rows_per_machine * 8);
    std::vector<std::string> row{std::to_string(n),
                                 format_size(block_bytes) + "B"};
    std::string best;
    double best_time = 1e300;
    for (const harness::NamedAlgorithm& algo : suite) {
      const harness::RunResult result =
          harness::run_algorithm(topo, algo, block_bytes, config);
      row.push_back(format_double(to_milliseconds(result.completion), 1) +
                    "ms");
      if (result.completion < best_time) {
        best_time = result.completion;
        best = algo.name;
      }
    }
    row.push_back(best);
    table.add_row(std::move(row));
  }
  std::cout << table.render()
            << "\nLarge matrices (large blocks) are where the generated "
               "routine wins —\nexactly the paper's 'message size is "
               "usually large' regime (§1).\n";
  return 0;
}
