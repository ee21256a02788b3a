// Shared driver for the paper-table benchmarks (Figures 6, 7, 8): runs
// the standard algorithm suite over the message-size sweep and prints
// the completion-time table and throughput series, paper-style.
#pragma once

#include <iostream>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/topology/io.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::bench {

/// Parses shared bench flags and runs the experiment for `topo`.
/// Flags: --msizes=8K,16K,... --csv --bandwidth-mbps=100
inline int run_topology_bench(const std::string& title,
                              const topology::Topology& topo, int argc,
                              char** argv) {
  CliParser cli("Reproduces the paper's evaluation on " + title + ".");
  cli.add_flag("msizes", "comma-separated message sizes",
               "8K,16K,32K,64K,128K,256K");
  cli.add_flag("csv", "also print CSV output", "false");
  cli.add_flag("bandwidth-mbps", "link bandwidth in Mbps", "100");
  cli.add_flag("jitter-us", "max OS wakeup jitter in microseconds", "1000");

  harness::ExperimentConfig config;
  bool csv = false;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    config.net.link_bandwidth_bytes_per_sec =
        mbps_to_bytes_per_sec(cli.get_double("bandwidth-mbps", 100.0));
    config.exec.wakeup_jitter_max =
        microseconds(cli.get_double("jitter-us", 1000.0));
    config.msizes.clear();
    for (const std::string& token : split(cli.get("msizes"), ',')) {
      config.msizes.push_back(parse_size(token));
    }
    csv = cli.get_bool("csv", false);
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  std::cout << topology::describe_topology(
                   topo, config.net.link_bandwidth_bytes_per_sec)
            << '\n';
  const auto suite = harness::standard_suite(topo);
  const harness::ExperimentReport report =
      harness::run_experiment(topo, title, suite, config);
  std::cout << report.to_string();
  if (csv) {
    std::cout << "\ncompletion_ms CSV\n"
              << report.completion_table().render_csv()
              << "\nthroughput_mbps CSV\n"
              << report.throughput_table().render_csv();
  }
  return 0;
}

}  // namespace aapc::bench
