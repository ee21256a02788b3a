// E10 — schedule-compilation service amortization.
//
// Measures what the service layer buys over the paper's one-shot §5
// routine generator on the three evaluation clusters: cold compile
// latency (canonicalize + schedule + verify + sync + lower), warm
// cache-hit latency (canonicalize + permutation rewrite), and coalesced
// throughput (many concurrent tenants, one canonical key).
//
// Exits nonzero unless the warm path is at least 50x faster than the
// cold path on the 32-node clusters — the acceptance bar for caching
// being worth the subsystem.
//
// Run:  ./bench_service [--repeats 9] [--warm-iters 200]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/table.hpp"
#include "aapc/common/units.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"

namespace {

using aapc::Bytes;
using aapc::topology::Topology;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Median latency of a fresh-service compilation (nothing cached).
double cold_seconds(const Topology& topo, Bytes msize, int repeats) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    aapc::service::ScheduleService service;
    const auto start = Clock::now();
    service.compile(topo, msize);
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

/// Median latency of a cache hit on a pre-populated service.
double warm_seconds(aapc::service::ScheduleService& service,
                    const Topology& topo, Bytes msize, int iters) {
  service.compile(topo, msize);  // populate
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto start = Clock::now();
    service.compile(topo, msize);
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

/// Wall-clock for `tenants` concurrent requests of one canonical key
/// against a cold service (one compilation, everyone else coalesces).
double coalesced_seconds(const Topology& topo, Bytes msize, int tenants) {
  aapc::service::ScheduleService service;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(tenants));
  const auto start = Clock::now();
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&service, &topo, msize] {
      service.compile(topo, msize);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return seconds_since(start);
}

std::string us(double seconds) {
  return std::to_string(static_cast<std::int64_t>(seconds * 1e6)) + " us";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli(
      "bench_service: cold-compile vs cache-hit vs coalesced latency of\n"
      "the schedule-compilation service on the paper's clusters.");
  cli.add_flag("repeats", "cold-compile repetitions (median)", "9");
  cli.add_flag("warm-iters", "cache-hit repetitions (median)", "200");
  cli.add_flag("tenants", "concurrent requests in the coalescing run", "64");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }
  // Each count sizes a vector whose median is read, so it starts at 1.
  int repeats = 0;
  int warm_iters = 0;
  int tenants = 0;
  try {
    const auto count = [&cli](const std::string& name,
                              std::uint64_t fallback) {
      const std::uint64_t value = cli.get_u64(name, fallback, INT32_MAX);
      AAPC_REQUIRE(value >= 1, "--" << name << " must be at least 1");
      return static_cast<int>(value);
    };
    repeats = count("repeats", 9);
    warm_iters = count("warm-iters", 200);
    tenants = count("tenants", 64);
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  const Bytes msize = 64_KiB;

  struct Cluster {
    const char* name;
    Topology topo;
    bool assert_speedup;  // the 32-node acceptance clusters
  };
  const Cluster clusters[] = {
      {"paper-a (24, single switch)", topology::make_paper_topology_a(),
       false},
      {"paper-b (32, star)", topology::make_paper_topology_b(), true},
      {"paper-c (32, chain)", topology::make_paper_topology_c(), true},
  };

  TextTable table;
  table.set_header({"cluster", "cold compile", "cache hit", "speedup",
                    std::to_string(tenants) + "-way coalesced"});
  bool ok = true;
  for (const Cluster& cluster : clusters) {
    const double cold = cold_seconds(cluster.topo, msize, repeats);
    service::ScheduleService service;
    const double warm = warm_seconds(service, cluster.topo, msize,
                                     warm_iters);
    const double coalesced = coalesced_seconds(cluster.topo, msize, tenants);
    const double speedup = cold / warm;
    table.add_row({cluster.name, us(cold), us(warm),
                   std::to_string(static_cast<std::int64_t>(speedup)) + "x",
                   us(coalesced)});
    if (cluster.assert_speedup && speedup < 50) {
      std::cerr << "FAIL: " << cluster.name << " warm path only " << speedup
                << "x faster than cold (need >= 50x)\n";
      ok = false;
    }
  }
  std::cout << table.render() << "\n";
  return ok ? 0 : 1;
}
