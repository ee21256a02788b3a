#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aapc/core/schedule_io.hpp"
#include "aapc/service/service.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"
#include "perf.hpp"
#include "workload.hpp"

namespace aapc::perf {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

void RunResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void report_latencies(RunResult& result,
                      const std::vector<std::vector<double>>& windows) {
  std::vector<double> p50, p90, p99;
  std::size_t samples = 0;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    p50.push_back(quantile(window, 0.50));
    p90.push_back(quantile(window, 0.90));
    p99.push_back(quantile(window, 0.99));
    samples += window.size();
  }
  result.set("latency_p50_ms", median(p50) * 1e3, "ms");
  result.note("latency_p90_ms", median(p90) * 1e3, "ms");
  result.note("latency_p99_ms", median(p99) * 1e3, "ms");
  result.note("latency_samples", static_cast<double>(samples), "count");
  result.note("latency_windows", static_cast<double>(p50.size()), "count");
}

void report_throughput(RunResult& result,
                       const std::vector<double>& window_rates) {
  result.set("throughput_rps", median(window_rates), "1/s");
}

namespace {

/// Random read-modify-writes with data-dependent branches over a 4 MiB
/// table allocated once: cache misses and branches, but no allocation
/// and no page faults, so the state the workload left the process in
/// does not show.
double calibration_kernel_seconds() {
  thread_local std::vector<std::uint64_t> table(std::size_t{1} << 19);
  const std::size_t mask = table.size() - 1;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 800000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t& slot = table[(x >> 29) & mask];
    slot = slot * 31 + i;
    acc += (slot & 4) != 0 ? slot >> 7 : ~slot;
  }
  static volatile std::uint64_t sink;
  sink = acc;
  return seconds_since(start);
}

}  // namespace

double calibration_seconds(std::size_t threads) {
  std::vector<std::vector<double>> samples(threads);
  const auto calibrate = [&samples](std::size_t t) {
    calibration_kernel_seconds();  // brings the table into cache
    for (int k = 0; k < 5; ++k) {
      samples[t].push_back(calibration_kernel_seconds());
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(calibrate, t);
  calibrate(0);
  for (std::thread& h : helpers) h.join();
  std::vector<double> all;
  for (const std::vector<double>& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  return median(all);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1;
}

NetdProcess::NetdProcess(const std::string& binary,
                         const std::vector<std::string>& args) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> argv_strings = {binary, "--port", "0",
                                           "--duration", "0"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, whatever kills it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  stdout_fd_ = fds[0];
  // Scrape "listening on <host>:<port>" (flushed by aapc_netd).
  std::string seen;
  const Clock::time_point start = Clock::now();
  while (port_ == 0) {
    if (seconds_since(start) > 30) break;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    char buf[512];
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on ");
    const std::size_t eol = seen.find('\n', at);
    if (at != std::string::npos && eol != std::string::npos) {
      const std::string line = seen.substr(at, eol - at);
      port_ = static_cast<std::uint16_t>(
          std::stoul(line.substr(line.rfind(':') + 1)));
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("aapc_netd did not report a port: " + seen);
  }
}

int NetdProcess::stop() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point start = Clock::now();
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0) {
    if (seconds_since(start) > 15) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      done = pid_;
      break;
    }
    // Keep draining its stdout so a final print never blocks it.
    char buf[512];
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 20) > 0 && read(stdout_fd_, buf, sizeof(buf)) <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  return done > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

NetdProcess::~NetdProcess() { stop(); }

std::uint64_t artifact_digest(const std::string& schedule_json,
                              const std::vector<topology::Rank>& to_canonical) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const char c : schedule_json) mix(static_cast<unsigned char>(c));
  for (const topology::Rank r : to_canonical) {
    for (int shift = 0; shift < 32; shift += 8) {
      mix(static_cast<unsigned char>(static_cast<std::uint32_t>(r) >> shift));
    }
  }
  return h;
}

namespace {

/// `relabelings` seeded labelings of every cluster, each at every size.
std::vector<Cell> make_cells(const std::vector<topology::Topology>& clusters,
                             std::int32_t relabelings,
                             const std::vector<Bytes>& sizes, Rng& rng) {
  std::vector<Cell> cells;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::int32_t r = 0; r < relabelings; ++r) {
      const topology::Topology topo =
          examples::shuffled_copy(clusters[c], rng);
      const std::string text = topology::serialize_topology(topo);
      for (const Bytes msize : sizes) {
        cells.push_back(Cell{c, topo, text, msize, 0});
      }
    }
  }
  return cells;
}

constexpr std::int32_t kHotRelabelings = 4;
const std::vector<Bytes> kHotSizes = {8_KiB, 64_KiB, 256_KiB};

}  // namespace

void compute_expected(std::vector<Cell>& cells) {
  service::ScheduleService reference;
  for (Cell& cell : cells) {
    const service::CompiledRoutine routine =
        reference.compile(cell.topo, cell.msize);
    cell.expected = artifact_digest(
        core::schedule_to_json(routine.schedule, cell.topo.machine_count()),
        routine.to_canonical);
  }
}

std::vector<Cell> hot_cells(std::uint64_t seed) {
  Rng rng(seed * 0x51ED27u + 3);
  return make_cells(hot_pool(), kHotRelabelings, kHotSizes, rng);
}

std::vector<Cell> fabric_cells(std::uint64_t seed) {
  Rng rng(seed * 0x2F6B1Du + 5);
  return make_cells({fabric_spanning_tree().topology}, kHotRelabelings,
                    {64_KiB, 256_KiB}, rng);
}

std::vector<Cell> large_cells(std::uint64_t seed) {
  Rng rng(seed * 0x3C6EF372u + 9);
  // Two labelings per cluster; the 256-rank shapes at two size classes,
  // the 1024-rank tree at one (its answer is about 10 MB).
  std::vector<topology::Topology> clusters = large_clusters();
  const topology::Topology big = clusters.back();
  clusters.pop_back();
  std::vector<Cell> cells = make_cells(clusters, 2, {64_KiB, 256_KiB}, rng);
  for (Cell& cell : make_cells({big}, 2, {64_KiB}, rng)) {
    cell.cluster = clusters.size();
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<std::size_t> hot_sequence(std::uint64_t seed, std::size_t count) {
  const std::size_t clusters = hot_pool().size();
  const std::size_t per_cluster = kHotRelabelings * kHotSizes.size();
  const examples::ZipfSampler zipf(clusters, 1.1);
  Rng rng(seed * 0x7F4A7C15u + 5);
  std::vector<std::size_t> sequence(count);
  for (std::size_t& c : sequence) {
    c = zipf.sample(rng) * per_cluster + rng.next_below(per_cluster);
  }
  return sequence;
}

std::vector<std::size_t> churn_sequence(std::uint64_t seed, std::size_t count,
                                        std::size_t hot, std::size_t fabric) {
  std::vector<std::size_t> sequence = hot_sequence(seed + 1, count);
  Rng rng(seed * 0x2545F491u + 7);
  for (std::size_t& c : sequence) {
    if (rng.next_bool(0.5)) c = hot + rng.next_below(fabric);
  }
  return sequence;
}

std::vector<std::size_t> large_sequence(std::uint64_t seed, std::size_t count,
                                        const std::vector<Cell>& cells) {
  const std::size_t big_cluster = large_clusters().size() - 1;
  std::vector<std::size_t> small, big;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    (cells[c].cluster == big_cluster ? big : small).push_back(c);
  }
  Rng rng(seed * 0x6A09E667u + 11);
  std::vector<std::size_t> sequence(count);
  for (std::size_t& c : sequence) {
    c = rng.next_bool(0.25) ? big[rng.next_below(big.size())]
                            : small[rng.next_below(small.size())];
  }
  return sequence;
}

std::vector<topology::Topology> hot_pool() {
  return examples::make_tenant_pool(8, /*seed=*/1);
}

std::vector<topology::Topology> large_clusters() {
  std::vector<topology::Topology> clusters;
  clusters.push_back(topology::make_fat_tree(8, 4, 8));
  clusters.push_back(topology::make_switch_fabric({4, 4}, 16));
  Rng lan_rng(0x1A2u);
  topology::RandomLanOptions lan;
  lan.switches = 24;
  lan.machines = 256;
  clusters.push_back(topology::make_random_lan(lan_rng, lan));
  clusters.push_back(topology::make_fat_tree(16, 8, 8));
  return clusters;
}

stp::SpanningTree fabric_spanning_tree() {
  // Mirrors aapc_netd's --fabric-switches/--fabric-machines star.
  stp::BridgeNetwork fabric;
  const stp::BridgeId hub = fabric.add_bridge("hub", 0x8000'0000'0001ull);
  for (std::int32_t s = 0; s < kFabricSwitches; ++s) {
    const stp::BridgeId leaf = fabric.add_bridge(
        "s" + std::to_string(s),
        0x8000'0000'0002ull + static_cast<std::uint64_t>(s));
    fabric.add_bridge_link(hub, leaf, 19);
    for (std::int32_t m = 0; m < kFabricMachines; ++m) {
      fabric.add_machine("m" + std::to_string(s) + "_" + std::to_string(m),
                         leaf);
    }
  }
  return stp::compute_spanning_tree(fabric);
}

std::vector<std::string> fabric_netd_args() {
  return {"--fabric-switches", std::to_string(kFabricSwitches),
          "--fabric-machines", std::to_string(kFabricMachines)};
}

topology::Topology tree_4096() { return topology::make_fat_tree(8, 16, 32); }

std::vector<CompileItem> compile_batch(std::uint64_t seed) {
  using core::CollectiveKind;
  Rng rng(seed * 0x9E37u + 17);
  const std::vector<topology::Topology> large = large_clusters();
  std::vector<CompileItem> batch;
  const auto add = [&](const std::string& label, const topology::Topology& t,
                       CollectiveKind kind, Bytes msize = 64_KiB) {
    CompileItem item{label, examples::shuffled_copy(t, rng), kind, {}, msize};
    if (kind == CollectiveKind::kSparseAlltoall) {
      // Radius-2 ring neighborhood (the halo-exchange shape).
      const std::int32_t n = item.topo.machine_count();
      item.neighbors.resize(static_cast<std::size_t>(n));
      for (topology::Rank r = 0; r < n; ++r) {
        item.neighbors[static_cast<std::size_t>(r)] = {
            (r + 1) % n, (r + 2) % n, (r + n - 1) % n, (r + n - 2) % n};
      }
    }
    batch.push_back(std::move(item));
  };
  add("alltoall_fat256", large[0], CollectiveKind::kAlltoall);
  add("alltoall_fabric256", large[1], CollectiveKind::kAlltoall);
  add("alltoall_lan256", large[2], CollectiveKind::kAlltoall);
  // The same shapes at another size class (distinct keys): the batch
  // median then falls among six like compiles rather than on one.
  add("alltoall_fat256_256k", large[0], CollectiveKind::kAlltoall, 256_KiB);
  add("alltoall_fabric256_256k", large[1], CollectiveKind::kAlltoall,
      256_KiB);
  add("alltoall_lan256_256k", large[2], CollectiveKind::kAlltoall, 256_KiB);
  add("allgather_fat256", large[0], CollectiveKind::kAllgather);
  add("reduce_scatter_lan256", large[2], CollectiveKind::kReduceScatter);
  add("sparse_fabric256", large[1], CollectiveKind::kSparseAlltoall);
  add("alltoall_fat1024", large[3], CollectiveKind::kAlltoall);
  add("allgather_fat1024", large[3], CollectiveKind::kAllgather);
  return batch;
}

}  // namespace aapc::perf
