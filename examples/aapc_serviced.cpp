// Schedule-compilation service driver: replays a synthetic multi-tenant
// workload against an in-process schedule service and prints a one-line
// summary of what it was served. The TCP driver of a running aapc_netd
// is aapc_loadgen.
//
// Tenants request AAPC routines for a pool of clusters whose popularity
// follows a zipfian distribution (a few hot clusters, a long tail), and
// each request arrives under a fresh rank labeling of its cluster — the
// situation the canonicalized cache is built for: relabeled isomorphic
// topologies must coalesce onto one cached artifact.
//
// Run:  ./aapc_serviced --requests 200 --threads 8
//       ./aapc_serviced --requests 500 --threads 16 --cache-capacity 4
//       ./aapc_serviced --requests 200 --threads 8 --min-hit-rate 0.5
//       ./aapc_serviced --requests 200 --metrics-out metrics.json
//
// The summary counts the cache_hit and coalesced flags of the served
// routines; --min-hit-rate makes the exit status assert the cache
// worked on that hit rate (used by the CI smoke test). --metrics-out
// writes the service's registry snapshot as JSON (obs::to_json — parse
// back with obs::snapshot_from_json).
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/io.hpp"
#include "workload.hpp"

namespace {

using aapc::topology::Topology;

struct Counters {
  std::atomic<std::int64_t> issued{0};
  std::atomic<std::int64_t> served{0};
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> coalesced{0};
  std::atomic<std::int64_t> compile_errors{0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli(
      "aapc_serviced: replay a zipfian multi-tenant workload against the\n"
      "schedule-compilation service and report cache/coalescing metrics.");
  cli.add_flag("requests", "total requests to issue", "200");
  cli.add_flag("threads", "concurrent tenant threads", "8");
  cli.add_flag("topologies", "distinct clusters in the tenant pool", "8");
  cli.add_flag("zipf", "zipf exponent for cluster popularity", "1.1");
  cli.add_flag("cache-capacity", "schedule-cache entries", "256");
  cli.add_flag("compiler-threads",
               "compiler pool workers lent to each compile's passes", "4");
  cli.add_flag("seed", "workload rng seed", "1");
  cli.add_flag("min-hit-rate",
               "exit nonzero unless cache hit rate reaches this", "-1");
  cli.add_flag("metrics-out",
               "write the service metrics registry to this file as a JSON "
               "snapshot (docs/OBSERVABILITY.md)");

  double zipf_s = 0;
  double min_hit_rate = 0;
  // Integers are read against the width of the field they land in, so
  // an out-of-range value is an error instead of a truncated setting.
  std::int64_t requests = 0;
  std::int64_t threads = 0;
  std::size_t pool_size = 0;
  std::uint64_t seed = 0;
  service::ServiceOptions options;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    zipf_s = cli.get_double("zipf", 1.1);
    min_hit_rate = cli.get_double("min-hit-rate", -1);
    requests =
        static_cast<std::int64_t>(cli.get_u64("requests", 200, INT64_MAX));
    threads = static_cast<std::int64_t>(cli.get_u64("threads", 8, INT64_MAX));
    pool_size = cli.get_u64("topologies", 8, SIZE_MAX);
    seed = cli.get_u64("seed", 1);
    options.cache_capacity = cli.get_u64("cache-capacity", 256, SIZE_MAX);
    AAPC_REQUIRE(options.cache_capacity >= 1,
                 "--cache-capacity must be at least 1");
    options.compiler_threads = static_cast<std::int32_t>(
        cli.get_u64("compiler-threads", 4, INT32_MAX));
    AAPC_REQUIRE(options.compiler_threads >= 1,
                 "--compiler-threads must be at least 1");
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  const std::vector<Topology> pool =
      examples::make_tenant_pool(pool_size, seed);
  const examples::ZipfSampler zipf(pool.size(), zipf_s);
  const Bytes sizes[] = {8_KiB, 64_KiB, 256_KiB};

  service::ScheduleService local(options);

  Counters counters;
  std::vector<std::thread> tenants;
  tenants.reserve(static_cast<std::size_t>(threads));
  for (std::int64_t t = 0; t < threads; ++t) {
    tenants.emplace_back([&, t] {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(t));
      for (;;) {
        if (counters.issued.fetch_add(1) >= requests) break;
        const Topology& base = pool[zipf.sample(rng)];
        // Every tenant sees its cluster under its own labeling.
        const Topology topo = examples::shuffled_copy(base, rng);
        const Bytes msize =
            sizes[rng.next_below(sizeof(sizes) / sizeof(sizes[0]))];
        try {
          const service::CompiledRoutine routine = local.compile(topo, msize);
          if (routine.cache_hit) counters.hits.fetch_add(1);
          if (routine.coalesced) counters.coalesced.fetch_add(1);
          counters.served.fetch_add(1);
        } catch (const std::exception& e) {
          counters.compile_errors.fetch_add(1);
          std::cerr << "compile failed: " << e.what() << "\n";
        }
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();

  const std::int64_t served = counters.served.load();
  const double hit_rate =
      served > 0 ? static_cast<double>(counters.hits.load()) /
                       static_cast<double>(served)
                 : 0;
  std::cout << "workload: " << requests << " requests, " << threads
            << " tenant threads, " << pool.size() << " clusters (zipf "
            << zipf_s << ")\n\n";
  std::cout << "served " << served << ", cache hits " << counters.hits.load()
            << " (rate " << hit_rate << "), coalesced "
            << counters.coalesced.load() << "\n";

  if (cli.has("metrics-out")) {
    const std::string path = cli.get("metrics-out");
    std::ofstream out(path);
    if (!out.good()) {
      std::cerr << "FAIL: cannot open metrics output file " << path << "\n";
      return 1;
    }
    out << obs::to_json(local.metrics_snapshot()) << "\n";
    if (!out.good()) {
      std::cerr << "FAIL: short write to " << path << "\n";
      return 1;
    }
    std::cout << "metrics snapshot written to " << path << "\n";
  }

  if (counters.compile_errors.load() > 0 || served != requests) {
    std::cerr << "FAIL: " << counters.compile_errors.load()
              << " compile errors, " << served << "/" << requests
              << " served\n";
    return 1;
  }
  if (min_hit_rate >= 0 && hit_rate < min_hit_rate) {
    std::cerr << "FAIL: cache hit rate " << hit_rate << " below required "
              << min_hit_rate << "\n";
    return 1;
  }
  return 0;
}
