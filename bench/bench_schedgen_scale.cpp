// Large-scale schedule-compilation gate: builds the full AAPC schedule
// for fat-tree / fabric / random-LAN clusters up to 4096 ranks, checks
// the parallel hierarchical path is bit-identical to the sequential
// one, verifies the §4 conditions (including the peak-bound phase
// count), and enforces an optional wall-clock cap.
//
// Exit status is the contract (CI runs this as a smoke test):
//   0  built, verified, parallel == sequential, under --max-seconds
//   1  wall-clock cap exceeded
//   2  parallel output differs from sequential output
//   3  verification failed
//
// Results print as one JSON object per line for the perf trajectory in
// bench/baselines/BENCH_schedgen.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using namespace aapc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

topology::Topology make_cluster(const std::string& shape,
                                std::int32_t ranks) {
  if (shape == "fat-tree") {
    // Keep pods x edges x hosts as close to the 8 x 16 x 32 = 4096
    // reference proportions as divisibility allows.
    switch (ranks) {
      case 64:
        return topology::make_fat_tree(2, 4, 8);
      case 128:
        return topology::make_fat_tree(2, 8, 8);
      case 256:
        return topology::make_fat_tree(4, 8, 8);
      case 512:
        return topology::make_fat_tree(4, 8, 16);
      case 1024:
        return topology::make_fat_tree(8, 8, 16);
      case 2048:
        return topology::make_fat_tree(8, 16, 16);
      case 4096:
        return topology::make_fat_tree(8, 16, 32);
      default:
        AAPC_REQUIRE(false, "--ranks for fat-tree must be one of "
                            "64/128/256/512/1024/2048/4096, got "
                                << ranks);
    }
  }
  if (shape == "fabric") {
    // Three-level fabric with fanout 4: machines spread over 64 leaves.
    AAPC_REQUIRE(ranks % 64 == 0, "--ranks for fabric must be a multiple "
                                  "of 64");
    return topology::make_switch_fabric({4, 4, 4}, ranks / 64);
  }
  AAPC_REQUIRE(shape == "random-lan",
               "--shape must be fat-tree, fabric, or random-lan");
  Rng rng(0xa11c);
  topology::RandomLanOptions options;
  options.switches = std::max(8, ranks / 32);
  options.machines = ranks;
  return topology::make_random_lan(rng, options);
}

void threaded_runner(const std::vector<core::Task>& tasks) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers =
      std::min<std::size_t>(tasks.size(), hw > 0 ? hw : 2);
  if (workers <= 1) {
    for (const core::Task& task : tasks) task();
    return;
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      tasks[i]();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) threads.emplace_back(drain);
  for (std::thread& t : threads) t.join();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "usage: bench_schedgen_scale [--ranks N] [--shape fat-tree|fabric|"
      "random-lan] [--max-seconds S] [--skip-verify]");
  cli.add_flag("ranks", "cluster size to compile", "4096");
  cli.add_flag("shape", "topology family", "fat-tree");
  cli.add_flag("max-seconds",
               "fail (exit 1) if sequential build exceeds this wall time; "
               "0 disables the cap",
               "0");
  cli.add_flag("skip-verify",
               "skip the independent O(messages * path) verifier pass");

  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const auto ranks = static_cast<std::int32_t>(cli.get_u64("ranks", 4096));
    const std::string shape = cli.get_or("shape", "fat-tree");
    const double max_seconds = cli.get_double("max-seconds", 0.0);
    const bool verify = !cli.get_bool("skip-verify", false);

    Clock::time_point t = Clock::now();
    const topology::Topology topo = make_cluster(shape, ranks);
    const double generate_seconds = seconds_since(t);

    t = Clock::now();
    const core::Decomposition dec = core::decompose(topo);
    const double decompose_seconds = seconds_since(t);

    t = Clock::now();
    const core::Schedule sequential =
        core::assign_messages_hierarchical(dec);
    const double sequential_seconds = seconds_since(t);

    t = Clock::now();
    const core::Schedule parallel = core::assign_messages_hierarchical(
        dec, core::AssignmentOptions{}, threaded_runner);
    const double parallel_seconds = seconds_since(t);

    const bool identical =
        sequential.messages == parallel.messages &&
        sequential.phase_begin == parallel.phase_begin;

    double verify_seconds = 0;
    bool verified = true;
    if (verify) {
      t = Clock::now();
      const core::VerifyReport report =
          core::verify_schedule(topo, sequential);
      verify_seconds = seconds_since(t);
      verified = report.ok;
      if (!report.ok) {
        std::cerr << "verification failed:\n" << report.summary() << '\n';
      }
    }

    const double build_seconds = decompose_seconds + sequential_seconds;
    std::cout << "{\"bench\":\"schedgen_scale\",\"shape\":\"" << shape
              << "\",\"ranks\":" << topo.machine_count()
              << ",\"messages\":" << sequential.message_count()
              << ",\"phases\":" << sequential.phase_count()
              << ",\"generate_seconds\":" << generate_seconds
              << ",\"decompose_seconds\":" << decompose_seconds
              << ",\"assign_seconds\":" << sequential_seconds
              << ",\"assign_parallel_seconds\":" << parallel_seconds
              << ",\"verify_seconds\":" << verify_seconds
              << ",\"build_seconds\":" << build_seconds
              << ",\"parallel_identical\":" << (identical ? "true" : "false")
              << ",\"verified\":" << (verified ? "true" : "false") << "}\n";

    if (!identical) {
      std::cerr << "FAIL: parallel assignment differs from sequential\n";
      return 2;
    }
    if (!verified) return 3;
    if (max_seconds > 0 && build_seconds > max_seconds) {
      std::cerr << "FAIL: build took " << build_seconds
                << " s (cap " << max_seconds << " s)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 4;
  }
}
