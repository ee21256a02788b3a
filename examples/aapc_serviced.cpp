// Schedule-compilation service driver: replays a synthetic multi-tenant
// workload against the schedule service — in-process by default, or
// over TCP against a running aapc_netd front-end with --connect — and
// prints a one-line client-side summary of what it was served.
//
// Tenants request AAPC routines for a pool of clusters whose popularity
// follows a zipfian distribution (a few hot clusters, a long tail), and
// each request arrives under a fresh rank labeling of its cluster — the
// situation the canonicalized cache is built for: relabeled isomorphic
// topologies must coalesce onto one cached artifact. The same replay
// drives both transports, so the CI hit-rate gate holds the TCP path to
// the in-process standard.
//
// Run:  ./aapc_serviced --requests 200 --threads 8
//       ./aapc_serviced --requests 500 --threads 16 --cache-capacity 4
//       ./aapc_serviced --requests 200 --threads 8 --min-hit-rate 0.5
//       ./aapc_serviced --requests 200 --connect 127.0.0.1:18211
//       ./aapc_serviced --requests 200 --metrics-out metrics.json
//
// The summary counts the cache_hit and coalesced flags of the served
// responses, the same way in both modes; --min-hit-rate makes the exit
// status assert the cache worked on that hit rate (used by the CI
// smoke test). --metrics-out writes the full registry snapshot as JSON
// (obs::to_json — parse back with obs::snapshot_from_json); in
// --connect mode the snapshot is fetched from the server (its merged
// front-end + service view).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/units.hpp"
#include "aapc/netd/client.hpp"
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
  std::atomic<std::int64_t> retries{0};
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
  cli.add_flag("connect",
               "host:port of a running aapc_netd; drive it over TCP instead "
               "of the in-process service");
  cli.add_flag("min-hit-rate",
               "exit nonzero unless cache hit rate reaches this", "-1");
  cli.add_flag("metrics-out",
               "write the service metrics registry to this file as a JSON "
               "snapshot (docs/OBSERVABILITY.md)");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  const bool remote = cli.has("connect");
  double zipf_s = 0;
  double min_hit_rate = 0;
  // Integers are read against the width of the field they land in, so
  // an out-of-range value is an error instead of a truncated setting.
  std::int64_t requests = 0;
  std::int64_t threads = 0;
  std::size_t pool_size = 0;
  std::uint64_t seed = 0;
  std::string remote_host = "127.0.0.1";
  std::uint16_t remote_port = 0;
  service::ServiceOptions options;
  try {
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
    if (remote) {
      const std::string endpoint = cli.get("connect");
      const std::size_t colon = endpoint.rfind(':');
      AAPC_REQUIRE(colon != std::string::npos && colon + 1 < endpoint.size(),
                   "--connect expects host:port, got \"" << endpoint << "\"");
      remote_host = endpoint.substr(0, colon);
      const std::uint64_t port = parse_u64(endpoint.substr(colon + 1));
      AAPC_REQUIRE(port <= UINT16_MAX,
                   "--connect port " << port << " is above " << UINT16_MAX);
      remote_port = static_cast<std::uint16_t>(port);
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  const std::vector<Topology> pool =
      examples::make_tenant_pool(pool_size, seed);
  const examples::ZipfSampler zipf(pool.size(), zipf_s);
  const Bytes sizes[] = {8_KiB, 64_KiB, 256_KiB};

  std::unique_ptr<service::ScheduleService> local;
  if (!remote) local = std::make_unique<service::ScheduleService>(options);

  Counters counters;
  std::vector<std::thread> tenants;
  tenants.reserve(static_cast<std::size_t>(threads));
  for (std::int64_t t = 0; t < threads; ++t) {
    tenants.emplace_back([&, t] {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(t));
      const std::string tenant_id = "tenant-" + std::to_string(t);
      std::unique_ptr<netd::Client> client;
      if (remote) {
        try {
          client = std::make_unique<netd::Client>(remote_host, remote_port);
        } catch (const std::exception& e) {
          std::cerr << "connect failed: " << e.what() << "\n";
          counters.compile_errors.fetch_add(1);
          return;
        }
      }
      for (;;) {
        if (counters.issued.fetch_add(1) >= requests) break;
        const Topology& base = pool[zipf.sample(rng)];
        // Every tenant sees its cluster under its own labeling.
        const Topology topo = examples::shuffled_copy(base, rng);
        const Bytes msize =
            sizes[rng.next_below(sizeof(sizes) / sizeof(sizes[0]))];
        for (;;) {
          try {
            if (remote) {
              const netd::ResponseFrame response =
                  client->compile(topo, msize, tenant_id);
              if (response.cache_hit) counters.hits.fetch_add(1);
              if (response.coalesced) counters.coalesced.fetch_add(1);
            } else {
              const service::CompiledRoutine routine =
                  local->compile(topo, msize);
              if (routine.cache_hit) counters.hits.fetch_add(1);
              if (routine.coalesced) counters.coalesced.fetch_add(1);
            }
            counters.served.fetch_add(1);
            break;
          } catch (const netd::RemoteError& e) {
            if (e.code() == netd::ErrorCode::kOverloaded ||
                e.code() == netd::ErrorCode::kQuotaExceeded) {
              counters.retries.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::duration<double>(
                  std::min(std::max(e.retry_after_seconds(), 1e-3), 0.25)));
            } else {
              counters.compile_errors.fetch_add(1);
              std::cerr << "compile failed: " << e.what() << "\n";
              break;
            }
          } catch (const std::exception& e) {
            counters.compile_errors.fetch_add(1);
            std::cerr << "compile failed: " << e.what() << "\n";
            break;
          }
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
            << zipf_s << "), retries after overload: "
            << counters.retries.load() << "\n\n";
  if (remote) {
    std::cout << "transport: tcp " << remote_host << ":" << remote_port
              << "\n";
  }
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
    if (remote) {
      // The server's merged view: front-end series + service series,
      // already JSON on the wire.
      try {
        netd::Client client(remote_host, remote_port);
        out << client.fetch_metrics_json() << "\n";
      } catch (const std::exception& e) {
        std::cerr << "FAIL: metrics fetch failed: " << e.what() << "\n";
        return 1;
      }
    } else {
      out << obs::to_json(local->metrics_snapshot()) << "\n";
    }
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
