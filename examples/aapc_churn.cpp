// aapc_churn: churn chaos driver for the serving path.
//
// Boots an in-process aapc_netd Server whose ServerOptions::fabric is
// an edge star, then drives open-loop zipfian load at it
// (the aapc_loadgen arrival model: arrivals scheduled on a global
// clock, latencies measured from the scheduled arrival) while a
// separate control connection injects live churn mid-load:
//   t = duration/3   kLinkDegrade on the s1-s3 trunk (--factor),
//   t = 2*duration/3 kLinkUp restoring it.
// Half the requests (--fabric-share) compile the elected fabric tree —
// the topology whose cache entries the churn invalidates; the rest
// draw from the usual zipfian tenant pool and must ride through
// unaffected.
//
// Every response for the fabric topology is timestamped with its epoch
// and must carry the same schedule JSON as the first one: a request
// names one labeling and one size, and link events change no answer.
// With --verify (default on) the schedule is also parsed and checked
// contention-free against the caller's topology, so a schedule that
// does not fit the caller's tree fails loudly.
//
// Exits 1 with a FAIL line, before starting the server, on a flag value
// it cannot read. Exits nonzero when chaos gates fail:
//   1  integrity failure (a served schedule was not contention-free,
//      or a fabric answer differed from the first)
//   2  availability (dropped requests, transport or connect failures)
//   3  no fabric answer at the acked epoch within --staleness-slo-ms of
//      either churn ack
//   4  epoch bookkeeping wrong (final epoch != 2), or p99 SLO missed
//
// Run:  ./aapc_churn --connections 8 --rps 300 --duration 3
//       ./aapc_churn --connections 32 --rps 1000 --duration 6 --factor 0.25
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/analyze.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/netd/client.hpp"
#include "aapc/netd/server.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/io.hpp"
#include "workload.hpp"

namespace {

using namespace aapc;
using Clock = std::chrono::steady_clock;

/// An edge star: hub s1, one machine behind s3 on the trunk under churn
/// (bridge link 0), four machines each behind s0 and s2. Its elected
/// tree is make_star({0, 1, 4, 4}) up to labeling.
stp::BridgeNetwork make_edge_star() {
  stp::BridgeNetwork net;
  const stp::BridgeId s1 = net.add_bridge("s1", 0x8000'0000'0001ull);
  const stp::BridgeId s3 = net.add_bridge("s3", 0x8000'0000'0002ull);
  const stp::BridgeId s0 = net.add_bridge("s0", 0x8000'0000'0003ull);
  const stp::BridgeId s2 = net.add_bridge("s2", 0x8000'0000'0004ull);
  net.add_bridge_link(s1, s3, 19);  // bridge link 0: the churned trunk
  net.add_bridge_link(s1, s0, 19);
  net.add_bridge_link(s1, s2, 19);
  net.add_machine("c0", s3);
  for (int m = 0; m < 4; ++m) net.add_machine(str_cat("a", m), s0);
  for (int m = 0; m < 4; ++m) net.add_machine(str_cat("b", m), s2);
  return net;
}

/// One fabric-topology response, on the load generator's clock.
struct FabricSample {
  double at_seconds = 0;  // since load start
  std::uint64_t epoch = 0;
};

struct WorkerStats {
  std::vector<double> latencies_seconds;
  std::vector<FabricSample> fabric_samples;
  /// The first fabric answer's schedule JSON; every later one must
  /// equal it.
  std::string first_fabric_json;
  std::int64_t served = 0;
  std::int64_t fabric_served = 0;
  std::int64_t integrity_failures = 0;
  std::int64_t dropped = 0;
  std::int64_t transport_errors = 0;
  std::int64_t reconnects = 0;
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
      "aapc_churn: open-loop zipfian load against an in-process aapc_netd\n"
      "server while live churn events degrade and restore a fabric trunk;\n"
      "gates availability, schedule integrity, and the epoch window.");
  cli.add_flag("connections", "concurrent TCP connections", "8");
  cli.add_flag("rps", "aggregate offered arrival rate (requests/s)", "300");
  cli.add_flag("duration", "seconds of offered load", "3");
  cli.add_flag("factor", "residual trunk fraction while degraded", "0.5");
  cli.add_flag("fabric-share",
               "fraction of requests compiling the churned fabric", "0.5");
  cli.add_flag("topologies", "distinct clusters in the tenant pool", "6");
  cli.add_flag("zipf", "zipf exponent for cluster popularity", "1.1");
  cli.add_flag("seed", "workload rng seed", "1");
  cli.add_flag("verify",
               "check every fabric schedule contention-free", "true");
  cli.add_flag("staleness-slo-ms",
               "max ms from a churn ack to the first answer at its epoch",
               "1500");
  cli.add_flag("slo-p99-ms", "exit 4 unless p99 <= this (0 = no gate)", "0");
  cli.add_flag("metrics-out",
               "write the server registry snapshot to this file as JSON");
  cli.add_flag("flight",
               "after the load, execute the fabric schedule under the "
               "simulator (healthy, then with the trunk degraded by "
               "--factor) with the flight recorder on and dump the rings "
               "into this directory");

  std::int64_t connections = 0;
  double rps = 0;
  double duration = 0;
  double factor = 0;
  double fabric_share = 0;
  std::uint64_t seed = 0;
  double staleness_slo_ms = 0;
  double slo_p99_ms = 0;
  std::size_t pool_size = 0;
  double zipf_s = 0;
  bool verify = true;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    connections = static_cast<std::int64_t>(
        cli.get_u64("connections", 8, INT64_MAX));
    rps = cli.get_double("rps", 300);
    duration = cli.get_double("duration", 3);
    factor = cli.get_double("factor", 0.5);
    fabric_share = cli.get_double("fabric-share", 0.5);
    seed = cli.get_u64("seed", 1);
    staleness_slo_ms = cli.get_double("staleness-slo-ms", 1500);
    slo_p99_ms = cli.get_double("slo-p99-ms", 0);
    pool_size = cli.get_u64("topologies", 6, SIZE_MAX);
    zipf_s = cli.get_double("zipf", 1.1);
    verify = cli.get_bool("verify", true);
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  const std::int64_t total_requests =
      static_cast<std::int64_t>(rps * duration);
  const Bytes msize = 64_KiB;

  // The fabric and the topology its elected tree serves.
  const auto fabric = std::make_shared<const stp::BridgeNetwork>(
      make_edge_star());
  const stp::SpanningTree tree = stp::compute_spanning_tree(*fabric);
  const std::string fabric_text =
      topology::serialize_topology(tree.topology);

  const std::vector<topology::Topology> pool =
      examples::make_tenant_pool(pool_size, seed);
  std::vector<std::string> pool_text;
  pool_text.reserve(pool.size());
  for (const topology::Topology& topo : pool) {
    pool_text.push_back(topology::serialize_topology(topo));
  }
  const examples::ZipfSampler zipf(pool.size(), zipf_s);

  netd::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.fabric = fabric;
  netd::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 2;
  }
  const std::uint16_t port = server.port();

  std::atomic<std::int64_t> next_arrival{0};
  std::atomic<std::int64_t> connect_failures{0};
  std::vector<WorkerStats> stats(static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(connections));
  const Clock::time_point start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  for (std::int64_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      WorkerStats& mine = stats[static_cast<std::size_t>(w)];
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(w));
      netd::ClientOptions copts;
      copts.retry_on_overload = true;
      std::unique_ptr<netd::Client> client;
      try {
        client = std::make_unique<netd::Client>("127.0.0.1", port, copts);
      } catch (const std::exception&) {
        connect_failures.fetch_add(1);
        return;
      }
      while (true) {
        const std::int64_t i = next_arrival.fetch_add(1);
        if (i >= total_requests) break;
        const Clock::time_point arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rps));
        std::this_thread::sleep_until(arrival);
        const bool on_fabric = rng.next_double() < fabric_share;
        const std::string& text =
            on_fabric ? fabric_text : pool_text[zipf.sample(rng)];
        try {
          const netd::ResponseFrame response =
              client->compile_serialized(text, msize, "chaos");
          mine.latencies_seconds.push_back(
              std::chrono::duration<double>(Clock::now() - arrival).count());
          ++mine.served;
          if (on_fabric) {
            ++mine.fabric_served;
            mine.fabric_samples.push_back(
                FabricSample{since_start(), response.epoch});
            if (mine.first_fabric_json.empty()) {
              mine.first_fabric_json = response.schedule_json;
            } else if (response.schedule_json != mine.first_fabric_json) {
              ++mine.integrity_failures;
            }
            if (verify) {
              try {
                const core::Schedule schedule = core::schedule_from_json(
                    response.schedule_json, tree.topology.machine_count());
                core::require_contention_free(tree.topology, schedule);
              } catch (const std::exception&) {
                ++mine.integrity_failures;
              }
            }
          }
        } catch (const netd::RemoteError&) {
          ++mine.dropped;  // overload retries exhausted, or rejected
        } catch (const std::exception&) {
          ++mine.transport_errors;
        }
      }
      mine.reconnects = client->reconnects();
    });
  }

  // The churn timeline, on its own control connection. Ack receipt is
  // the earliest instant a client could observe the new epoch, so the
  // epoch window is measured from it.
  double degrade_ack_at = -1, restore_ack_at = -1;
  std::uint64_t degrade_epoch = 0, restore_epoch = 0;
  std::string churn_error;
  std::thread churner([&] {
    try {
      netd::Client control("127.0.0.1", port);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(duration / 3)));
      const netd::ChurnAckFrame degrade =
          control.churn(netd::ChurnKind::kLinkDegrade, 0, factor);
      degrade_ack_at = since_start();
      degrade_epoch = degrade.epoch;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(2 * duration / 3)));
      const netd::ChurnAckFrame restore =
          control.churn(netd::ChurnKind::kLinkUp, 0);
      restore_ack_at = since_start();
      restore_epoch = restore.epoch;
    } catch (const std::exception& e) {
      churn_error = e.what();
    }
  });

  for (std::thread& worker : workers) worker.join();
  churner.join();
  const double elapsed = since_start();
  server.stop();

  WorkerStats total;
  std::vector<double> latencies;
  std::vector<FabricSample> samples;
  const std::string* first_json = nullptr;
  for (const WorkerStats& s : stats) {
    if (!s.first_fabric_json.empty()) {
      if (first_json == nullptr) {
        first_json = &s.first_fabric_json;
      } else if (s.first_fabric_json != *first_json) {
        ++total.integrity_failures;
      }
    }
    latencies.insert(latencies.end(), s.latencies_seconds.begin(),
                     s.latencies_seconds.end());
    samples.insert(samples.end(), s.fabric_samples.begin(),
                   s.fabric_samples.end());
    total.served += s.served;
    total.fabric_served += s.fabric_served;
    total.integrity_failures += s.integrity_failures;
    total.dropped += s.dropped;
    total.transport_errors += s.transport_errors;
    total.reconnects += s.reconnects;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50_ms = quantile_sorted(latencies, 0.50) * 1e3;
  const double p99_ms = quantile_sorted(latencies, 0.99) * 1e3;

  // Epoch window per churn event: ack to the first fabric response at
  // or above the acked epoch. -1 = never.
  const auto window_ms = [&samples](double ack_at, std::uint64_t epoch) {
    if (ack_at < 0) return -1.0;
    double first = -1;
    for (const FabricSample& s : samples) {
      if (s.at_seconds >= ack_at && s.epoch >= epoch &&
          (first < 0 || s.at_seconds < first)) {
        first = s.at_seconds;
      }
    }
    return first < 0 ? -1.0 : (first - ack_at) * 1e3;
  };
  const double degrade_window_ms = window_ms(degrade_ack_at, degrade_epoch);
  const double restore_window_ms = window_ms(restore_ack_at, restore_epoch);

  std::cout << "{\"bench\":\"churn_chaos\",\"connections\":" << connections
            << ",\"rps_target\":" << rps
            << ",\"duration_s\":" << elapsed
            << ",\"served\":" << total.served
            << ",\"fabric_served\":" << total.fabric_served
            << ",\"p50_ms\":" << p50_ms << ",\"p99_ms\":" << p99_ms
            << ",\"degrade_staleness_ms\":" << degrade_window_ms
            << ",\"restore_staleness_ms\":" << restore_window_ms
            << ",\"final_epoch\":" << restore_epoch
            << ",\"reconnects\":" << total.reconnects
            << ",\"dropped\":" << total.dropped
            << ",\"transport_errors\":" << total.transport_errors
            << ",\"connect_failures\":" << connect_failures.load()
            << ",\"integrity_failures\":" << total.integrity_failures
            << "}" << std::endl;

  if (cli.has("metrics-out")) {
    const std::string path = cli.get("metrics-out");
    std::ofstream out(path);
    out << obs::to_json(server.metrics_snapshot()) << "\n";
    if (!out.good()) {
      std::cerr << "FAIL: short write to " << path << "\n";
      return 2;
    }
  }

  // Post-chaos forensics: execute the schedule the server was serving
  // on the fabric it was serving it for — once healthy, once with the
  // churned trunk held at --factor — with the flight recorder wired
  // in, and keep both ring dumps. `aapc_analyze --load` cannot read
  // them yet: it assumes its built-in 4+4 fabric, and a dump carries no
  // topology until ROADMAP item 11 stamps one in.
  if (cli.has("flight")) {
    const std::string dir = cli.get("flight");
    std::filesystem::create_directories(dir);
    const topology::Topology& topo = tree.topology;
    const core::Schedule schedule = core::build_aapc_schedule(topo);
    const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
    lowering::LoweringOptions lopts;
    lopts.precomputed_plan = &plan;
    const mpisim::ProgramSet set =
        lowering::lower_schedule(topo, schedule, msize, lopts);
    const simnet::NetworkParams net;
    for (const bool degraded : {false, true}) {
      flight::Recorder recorder(topo.machine_count());
      mpisim::ExecutorParams exec;
      exec.flight = &recorder;
      if (degraded) {
        faults::FaultPlan fault_plan;
        fault_plan.add(faults::FaultEvent::link_degrade(0, 0, factor));
        faults::compile(fault_plan, net, topo.link_count(),
                        tree.link_of_bridge_link)
            .apply(exec);
      }
      mpisim::Executor(topo, net, exec).run(set);
      const flight::FlightDump dump = flight::snapshot(
          recorder, degraded ? "aapc_churn --flight (trunk degraded)"
                             : "aapc_churn --flight (healthy)");
      const std::string path =
          dir + (degraded ? "/churn_degraded.flt" : "/churn_healthy.flt");
      flight::write_dump_file(dump, path);
      const flight::AnalysisReport report =
          flight::analyze(dump, topo, &schedule, &plan, &tree);
      std::cout << "flight: wrote " << path << " ("
                << report.events_analyzed << " events); "
                << (report.verdicts.empty()
                        ? std::string("no verdict\n")
                        : str_cat(flight::verdict_kind_name(
                                      report.verdicts.front().kind),
                                  " — ", report.verdicts.front().detail,
                                  "\n"));
    }
  }

  if (total.integrity_failures > 0) {
    std::cerr << "FAIL: " << total.integrity_failures
              << " served schedules were not contention-free or differed "
                 "from the first fabric answer\n";
    return 1;
  }
  if (total.served == 0 || total.dropped > 0 || total.transport_errors > 0 ||
      connect_failures.load() > 0 || !churn_error.empty()) {
    std::cerr << "FAIL: served " << total.served << ", dropped "
              << total.dropped << ", " << total.transport_errors
              << " transport errors, " << connect_failures.load()
              << " connect failures"
              << (churn_error.empty() ? "" : ", churn: " + churn_error)
              << "\n";
    return 2;
  }
  for (const double window : {degrade_window_ms, restore_window_ms}) {
    if (window < 0 || window > staleness_slo_ms) {
      std::cerr << "FAIL: epoch window "
                << (window < 0 ? std::string("unbounded")
                               : std::to_string(window) + " ms")
                << " against the " << staleness_slo_ms << " ms SLO\n";
      return 3;
    }
  }
  if (restore_epoch != 2) {
    std::cerr << "FAIL: final epoch " << restore_epoch << ", expected 2\n";
    return 4;
  }
  if (slo_p99_ms > 0 && p99_ms > slo_p99_ms) {
    std::cerr << "FAIL: p99 " << p99_ms << " ms above the " << slo_p99_ms
              << " ms SLO\n";
    return 4;
  }
  return 0;
}
