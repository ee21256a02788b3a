// aapc_netd: the TCP serving front-end for the schedule-compilation
// service. Binds a listening socket, spawns the epoll event loop, the
// dispatchers and the ScheduleService backend, and serves the binary
// protocol of docs/NETD.md until --duration elapses or SIGINT/SIGTERM
// arrives; shutdown drains in-flight compilations (bounded by
// --drain-deadline) before closing connections.
//
// Run:  ./aapc_netd --port 18211
//       ./aapc_netd --port 18211 --dispatch-threads 8 --compiler-threads 8
//       ./aapc_netd --port 18211 --tenant-rate 100 --tenant-burst 32
//       ./aapc_netd --port 18211 --duration 10 --metrics-out netd.json
//       ./aapc_netd --port 18211 --fabric-switches 3 --fabric-machines 4
//
// --fabric-switches > 0 stands up a star bridged fabric behind the
// serving path (a hub plus that many leaf switches, --fabric-machines
// machines each): the server elects its spanning tree, binds the
// canonical hash into the service's topology-epoch feed, and accepts
// kChurnEvent frames (docs/NETD.md §churn) naming trunk bridge links
// 0..switches-1.
//
// The bound port is printed as "listening on <host>:<port>" before
// serving starts (flushed, so a harness can scrape it when --port 0
// picked an ephemeral port). --metrics-out writes the merged registry
// snapshot — front-end series plus the service's aapc_service_* series
// — at shutdown.
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/netd/server.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/stp/stp.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  using namespace aapc;
  CliParser cli(
      "aapc_netd: TCP front-end serving compiled AAPC schedules over the\n"
      "length-prefixed binary protocol of docs/NETD.md.");
  cli.add_flag("host", "listen address", "127.0.0.1");
  cli.add_flag("port", "listen port (0 = ephemeral)", "18211");
  cli.add_flag("dispatch-threads", "compile dispatch workers", "4");
  cli.add_flag("dispatch-queue", "dispatch queue bound", "256");
  cli.add_flag("max-connections", "concurrent connection cap", "4096");
  cli.add_flag("tenant-rate",
               "per-tenant requests/second quota (0 disables)", "0");
  cli.add_flag("tenant-burst", "per-tenant burst allowance", "64");
  cli.add_flag("cache-capacity", "schedule-cache entries", "512");
  cli.add_flag("compiler-threads",
               "compiler pool workers lent to each compile's passes", "4");
  cli.add_flag("fabric-switches",
               "leaf switches of the churnable star fabric (0 = no fabric, "
               "churn frames rejected)", "0");
  cli.add_flag("fabric-machines", "machines per fabric leaf switch", "4");
  cli.add_flag("duration",
               "seconds to serve before exiting (0 = until SIGINT)", "0");
  cli.add_flag("drain-deadline",
               "max seconds to drain in-flight work on shutdown", "10");
  cli.add_flag("metrics-out",
               "write the merged registry snapshot (front-end + service "
               "series) to this file as JSON at shutdown");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }

  // Counts are read against the width of the field they land in, so an
  // out-of-range value is an error instead of a truncated setting.
  constexpr std::uint64_t kMaxCount = INT32_MAX;
  netd::ServerOptions options;
  double duration = 0;
  std::int64_t fabric_switches = 0;
  std::int64_t fabric_machines = 0;
  try {
    options.host = cli.get_or("host", "127.0.0.1");
    options.port =
        static_cast<std::uint16_t>(cli.get_u64("port", 18211, UINT16_MAX));
    options.dispatch_threads = static_cast<std::int32_t>(
        cli.get_u64("dispatch-threads", 4, kMaxCount));
    options.dispatch_queue_capacity = static_cast<std::int32_t>(
        cli.get_u64("dispatch-queue", 256, kMaxCount));
    options.admission.max_connections = static_cast<std::int64_t>(
        cli.get_u64("max-connections", 4096, INT64_MAX));
    options.admission.tenant_rate = cli.get_double("tenant-rate", 0);
    options.admission.tenant_burst = cli.get_double("tenant-burst", 64);
    options.service.cache_capacity = cli.get_u64("cache-capacity", 512);
    options.service.compiler_threads = static_cast<std::int32_t>(
        cli.get_u64("compiler-threads", 4, kMaxCount));
    options.drain_deadline_seconds = cli.get_double("drain-deadline", 10);
    duration = cli.get_double("duration", 0);
    fabric_switches = static_cast<std::int64_t>(
        cli.get_u64("fabric-switches", 0, INT64_MAX));
    fabric_machines = static_cast<std::int64_t>(
        cli.get_u64("fabric-machines", 4, INT64_MAX));
  } catch (const InvalidArgument& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }

  if (fabric_switches > 0) {
    stp::BridgeNetwork fabric;
    const stp::BridgeId hub = fabric.add_bridge("hub", 0x8000'0000'0001ull);
    for (std::int64_t s = 0; s < fabric_switches; ++s) {
      const stp::BridgeId leaf = fabric.add_bridge(
          "s" + std::to_string(s),
          0x8000'0000'0002ull + static_cast<std::uint64_t>(s));
      fabric.add_bridge_link(hub, leaf, 19);  // trunk = bridge link s
      for (std::int64_t m = 0; m < fabric_machines; ++m) {
        fabric.add_machine("m" + std::to_string(s) + "_" + std::to_string(m),
                           leaf);
      }
    }
    options.fabric =
        std::make_shared<const stp::BridgeNetwork>(std::move(fabric));
  }

  netd::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  std::cout << "listening on " << options.host << ":" << server.port()
            << std::endl;  // flush: harnesses scrape the bound port

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_acquire)) {
    if (duration > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= duration) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "draining..." << std::endl;
  server.stop();

  const obs::RegistrySnapshot snapshot = server.metrics_snapshot();
  std::cout << "served "
            << static_cast<std::int64_t>(
                   snapshot.total("aapc_netd_requests_total"))
            << " requests over "
            << static_cast<std::int64_t>(
                   snapshot.value("aapc_netd_connections_total"))
            << " connections\n";
  if (cli.has("metrics-out")) {
    const std::string path = cli.get("metrics-out");
    std::ofstream out(path);
    if (!out.good()) {
      std::cerr << "FAIL: cannot open metrics output file " << path << "\n";
      return 1;
    }
    out << obs::to_json(snapshot) << "\n";
    if (!out.good()) {
      std::cerr << "FAIL: short write to " << path << "\n";
      return 1;
    }
    std::cout << "metrics snapshot written to " << path << "\n";
  }
  return 0;
}
