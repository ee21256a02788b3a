// aapc_loadgen: open-loop zipfian load generator for aapc_netd.
//
// Drives `--connections` persistent TCP connections against a running
// front-end at an aggregate arrival rate of `--rps` requests/second.
// Arrivals are scheduled on a global clock *before* workers pick them
// up (open-loop: a slow server does not slow the offered load, it
// accumulates queueing delay), and every latency is measured from the
// scheduled arrival time, so coordinated omission cannot hide
// overload. Cluster popularity is zipfian over a pool of tenant
// topologies (the same pool as aapc_serviced).
//
// With --verify (default on) every response's schedule artifact is
// compared byte-for-byte against an in-process ScheduleService::compile
// for the same topology and message size — the wire must be a
// semantics-preserving transport, not approximately one.
//
// Reports exact p50/p99/p999 over all request latencies, prints one
// JSON result line (the bench/baselines/BENCH_netd.json format), and
// exits nonzero when gates fail:
//   1  integrity failure (response differs from the in-process artifact)
//   2  p99 above --slo-p99-ms
//   3  cache hit rate below --min-hit-rate
//   4  transport/compile errors or nothing served
//
// Run:  ./aapc_loadgen --port 18211 --connections 64 --rps 200 --duration 5
//       ./aapc_loadgen --port 18211 --connections 1000 --rps 2000
//           --duration 3 --slo-p99-ms 500 --min-hit-rate 0.9
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/netd/client.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/obs/metrics.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/io.hpp"
#include "workload.hpp"

namespace {

using namespace aapc;
using Clock = std::chrono::steady_clock;

struct Expected {
  std::string schedule_json;
  std::vector<topology::Rank> to_canonical;
};

struct WorkerStats {
  std::vector<double> latencies_seconds;
  std::int64_t served = 0;
  std::int64_t cache_hits = 0;
  std::int64_t coalesced = 0;
  std::int64_t integrity_failures = 0;
  std::int64_t rejected_overload = 0;
  std::int64_t rejected_quota = 0;
  std::int64_t rejected_other = 0;
  std::int64_t retries = 0;
  std::int64_t dropped = 0;  // retry budget exhausted
  std::int64_t transport_errors = 0;
};

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "aapc_loadgen: open-loop zipfian load generator for the aapc_netd\n"
      "front-end; verifies every response against the in-process service\n"
      "and reports p50/p99/p999 against an SLO.");
  cli.add_flag("host", "server address", "127.0.0.1");
  cli.add_flag("port", "server port", "18211");
  cli.add_flag("connections", "concurrent TCP connections", "64");
  cli.add_flag("rps", "aggregate offered arrival rate (requests/s)", "200");
  cli.add_flag("duration", "seconds of offered load", "5");
  cli.add_flag("requests",
               "total requests (0 = rps x duration)", "0");
  cli.add_flag("topologies", "distinct clusters in the tenant pool", "8");
  cli.add_flag("zipf", "zipf exponent for cluster popularity", "1.1");
  cli.add_flag("tenants", "distinct tenant ids cycled over workers", "4");
  cli.add_flag("seed", "workload rng seed", "1");
  cli.add_flag("kind",
               "collective kind (alltoall, allgather, reduce_scatter, "
               "sparse_alltoall)",
               "alltoall");
  cli.add_flag("verify",
               "compare every response to the in-process artifact", "true");
  cli.add_flag("max-retries",
               "retries per request after overload/quota rejects", "8");
  cli.add_flag("slo-p99-ms", "exit 2 unless p99 <= this (0 = no gate)", "0");
  cli.add_flag("min-hit-rate",
               "exit 3 unless cache hit rate reaches this", "-1");
  cli.add_flag("metrics-out",
               "write the client-side obs registry to this file as JSON");

  std::string host;
  // Integers are read against the width of the field they land in, so
  // an out-of-range value is an error instead of a truncated setting.
  std::uint16_t port = 0;
  std::int64_t connections = 0;
  std::int64_t total_requests = 0;
  std::size_t pool_size = 0;
  std::int64_t tenants = 0;
  std::uint64_t seed = 0;
  std::int64_t max_retries = 0;
  double rps = 0;
  double duration = 0;
  double zipf_s = 0;
  double slo_p99_ms = 0;
  double min_hit_rate = 0;
  bool verify = true;
  core::CollectiveKind kind = core::CollectiveKind::kAlltoall;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    host = cli.get_or("host", "127.0.0.1");
    port = static_cast<std::uint16_t>(cli.get_u64("port", 18211, UINT16_MAX));
    connections = static_cast<std::int64_t>(
        cli.get_u64("connections", 64, INT64_MAX));
    total_requests =
        static_cast<std::int64_t>(cli.get_u64("requests", 0, INT64_MAX));
    pool_size = cli.get_u64("topologies", 8, SIZE_MAX);
    tenants = static_cast<std::int64_t>(cli.get_u64("tenants", 4, INT64_MAX));
    AAPC_REQUIRE(tenants >= 1, "--tenants must be at least 1");
    seed = cli.get_u64("seed", 1);
    max_retries =
        static_cast<std::int64_t>(cli.get_u64("max-retries", 8, INT64_MAX));
    // Arrival i is scheduled at i / rps, so the rate must be positive.
    rps = cli.get_double("rps", 200);
    AAPC_REQUIRE(rps > 0, "--rps must be above 0, got " << rps);
    duration = cli.get_double("duration", 5);
    zipf_s = cli.get_double("zipf", 1.1);
    slo_p99_ms = cli.get_double("slo-p99-ms", 0);
    min_hit_rate = cli.get_double("min-hit-rate", -1);
    verify = cli.get_bool("verify", true);
    try {
      kind = core::parse_collective_kind(cli.get_or("kind", "alltoall"));
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(std::string("--kind: ") + e.what());
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  if (total_requests <= 0) {
    total_requests = static_cast<std::int64_t>(rps * duration);
  }
  const Bytes sizes[] = {8_KiB, 64_KiB, 256_KiB};
  constexpr std::size_t kSizeCount = sizeof(sizes) / sizeof(sizes[0]);

  // Tenant pool, serialized once per entry (the wire format is the
  // docs/FORMATS.md §1 text). Labelings are fixed per pool entry so
  // the expected artifact is precomputable; NetdServerTest sends
  // relabeled copies over the wire.
  const std::vector<topology::Topology> pool =
      examples::make_tenant_pool(pool_size, seed);
  std::vector<std::string> pool_text;
  pool_text.reserve(pool.size());
  for (const topology::Topology& topo : pool) {
    pool_text.push_back(topology::serialize_topology(topo));
  }
  const examples::ZipfSampler zipf(pool.size(), zipf_s);

  // Sparse requests use a radius-1 ring neighborhood per cluster (the
  // halo-exchange shape) — deterministic, so the expected artifact
  // below and every worker agree on the pattern.
  std::vector<core::SparseNeighbors> pool_neighbors(pool.size());
  if (kind == core::CollectiveKind::kSparseAlltoall) {
    for (std::size_t p = 0; p < pool.size(); ++p) {
      const auto n = pool[p].machine_count();
      pool_neighbors[p].resize(static_cast<std::size_t>(n));
      for (topology::Rank r = 0; r < n; ++r) {
        pool_neighbors[p][static_cast<std::size_t>(r)] = {(r + 1) % n,
                                                          (r + n - 1) % n};
      }
    }
  }

  // Ground truth: the in-process service result for every (cluster,
  // size class) cell. Responses must match byte-for-byte.
  std::vector<std::vector<Expected>> expected;
  if (verify) {
    service::ScheduleService reference;
    expected.resize(pool.size());
    for (std::size_t p = 0; p < pool.size(); ++p) {
      for (std::size_t s = 0; s < kSizeCount; ++s) {
        const service::CompiledRoutine routine =
            reference.compile(pool[p], sizes[s], kind, pool_neighbors[p]);
        Expected cell;
        cell.schedule_json = core::schedule_to_json(
            routine.schedule, pool[p].machine_count());
        cell.to_canonical = routine.to_canonical;
        expected[p].push_back(std::move(cell));
      }
    }
  }

  obs::Registry registry;
  obs::Histogram& request_seconds = registry.histogram(
      "aapc_loadgen_request_seconds",
      "Open-loop request latency (from scheduled arrival to response)");
  obs::Counter& served_total =
      registry.counter("aapc_loadgen_served_total", "Responses received");
  obs::Counter& integrity_failures_total = registry.counter(
      "aapc_loadgen_integrity_failures_total",
      "Responses that differed from the in-process artifact");

  std::atomic<std::int64_t> next_arrival{0};
  std::vector<WorkerStats> stats(static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(connections));
  std::atomic<std::int64_t> connect_failures{0};
  const Clock::time_point start = Clock::now();

  for (std::int64_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      WorkerStats& mine = stats[static_cast<std::size_t>(w)];
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(w));
      const std::string tenant = "bench-" + std::to_string(w % tenants);
      std::unique_ptr<netd::Client> client;
      try {
        client = std::make_unique<netd::Client>(host, port);
      } catch (const std::exception&) {
        connect_failures.fetch_add(1);
        return;
      }
      while (true) {
        const std::int64_t i = next_arrival.fetch_add(1);
        if (i >= total_requests) return;
        const Clock::time_point arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rps));
        std::this_thread::sleep_until(arrival);
        const std::size_t p = zipf.sample(rng);
        const std::size_t s =
            static_cast<std::size_t>(rng.next_below(kSizeCount));
        std::int64_t attempts = 0;
        while (true) {
          try {
            const netd::ResponseFrame response = client->compile_serialized(
                pool_text[p], sizes[s], tenant, kind, pool_neighbors[p]);
            const double latency =
                std::chrono::duration<double>(Clock::now() - arrival).count();
            mine.latencies_seconds.push_back(latency);
            request_seconds.observe(latency);
            served_total.inc();
            ++mine.served;
            if (response.cache_hit) ++mine.cache_hits;
            if (response.coalesced) ++mine.coalesced;
            if (verify) {
              const Expected& want = expected[p][s];
              if (response.schedule_json != want.schedule_json ||
                  response.to_canonical != want.to_canonical) {
                ++mine.integrity_failures;
                integrity_failures_total.inc();
              }
            }
            break;
          } catch (const netd::RemoteError& e) {
            if (e.code() == netd::ErrorCode::kOverloaded) {
              ++mine.rejected_overload;
            } else if (e.code() == netd::ErrorCode::kQuotaExceeded) {
              ++mine.rejected_quota;
            } else {
              ++mine.rejected_other;
            }
            if (e.code() != netd::ErrorCode::kOverloaded &&
                e.code() != netd::ErrorCode::kQuotaExceeded) {
              ++mine.dropped;  // not retryable
              break;
            }
            if (++attempts > max_retries) {
              ++mine.dropped;
              break;
            }
            ++mine.retries;
            // Honor the server's hint, capped so the open-loop clock
            // is not starved by one hot key.
            const double backoff =
                std::min(std::max(e.retry_after_seconds(), 1e-3), 0.25);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
          } catch (const std::exception&) {
            ++mine.transport_errors;
            try {
              client = std::make_unique<netd::Client>(host, port);
            } catch (const std::exception&) {
              connect_failures.fetch_add(1);
              return;  // server unreachable; worker gives up
            }
            if (++attempts > max_retries) {
              ++mine.dropped;
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerStats total;
  std::vector<double> latencies;
  for (const WorkerStats& s : stats) {
    latencies.insert(latencies.end(), s.latencies_seconds.begin(),
                     s.latencies_seconds.end());
    total.served += s.served;
    total.cache_hits += s.cache_hits;
    total.coalesced += s.coalesced;
    total.integrity_failures += s.integrity_failures;
    total.rejected_overload += s.rejected_overload;
    total.rejected_quota += s.rejected_quota;
    total.rejected_other += s.rejected_other;
    total.retries += s.retries;
    total.dropped += s.dropped;
    total.transport_errors += s.transport_errors;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50_ms = quantile_sorted(latencies, 0.50) * 1e3;
  const double p99_ms = quantile_sorted(latencies, 0.99) * 1e3;
  const double p999_ms = quantile_sorted(latencies, 0.999) * 1e3;
  const double achieved_rps =
      elapsed > 0 ? static_cast<double>(total.served) / elapsed : 0;
  const double hit_rate =
      total.served > 0
          ? static_cast<double>(total.cache_hits) /
                static_cast<double>(total.served)
          : 0;

  // One JSON line, the BENCH_netd.json trajectory format.
  std::cout << "{\"bench\":\"netd_loadgen\",\"connections\":" << connections
            << ",\"rps_target\":" << rps
            << ",\"rps_achieved\":" << achieved_rps
            << ",\"duration_s\":" << elapsed
            << ",\"served\":" << total.served
            << ",\"p50_ms\":" << p50_ms << ",\"p99_ms\":" << p99_ms
            << ",\"p999_ms\":" << p999_ms
            << ",\"hit_rate\":" << hit_rate
            << ",\"coalesced\":" << total.coalesced
            << ",\"rejected_overload\":" << total.rejected_overload
            << ",\"rejected_quota\":" << total.rejected_quota
            << ",\"rejected_other\":" << total.rejected_other
            << ",\"retries\":" << total.retries
            << ",\"dropped\":" << total.dropped
            << ",\"transport_errors\":" << total.transport_errors
            << ",\"connect_failures\":" << connect_failures.load()
            << ",\"integrity_failures\":" << total.integrity_failures
            << "}" << std::endl;

  if (cli.has("metrics-out")) {
    const std::string path = cli.get("metrics-out");
    std::ofstream out(path);
    if (!out.good()) {
      std::cerr << "FAIL: cannot open metrics output file " << path << "\n";
      return 4;
    }
    out << obs::to_json(registry.snapshot()) << "\n";
    if (!out.good()) {
      std::cerr << "FAIL: short write to " << path << "\n";
      return 4;
    }
  }

  if (total.integrity_failures > 0) {
    std::cerr << "FAIL: " << total.integrity_failures
              << " responses differed from the in-process artifact\n";
    return 1;
  }
  if (slo_p99_ms > 0 && p99_ms > slo_p99_ms) {
    std::cerr << "FAIL: p99 " << p99_ms << " ms above the " << slo_p99_ms
              << " ms SLO\n";
    return 2;
  }
  if (min_hit_rate >= 0 && hit_rate < min_hit_rate) {
    std::cerr << "FAIL: cache hit rate " << hit_rate << " below required "
              << min_hit_rate << "\n";
    return 3;
  }
  if (total.served == 0 || total.transport_errors > 0 ||
      connect_failures.load() > 0) {
    std::cerr << "FAIL: served " << total.served << ", "
              << total.transport_errors << " transport errors, "
              << connect_failures.load() << " connect failures\n";
    return 4;
  }
  return 0;
}
