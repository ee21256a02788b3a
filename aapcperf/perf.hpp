// Shared pieces of the aapc_perf benchmark program: the result record,
// sample statistics, the aapc_netd child process, artifact digests and
// the seeded workload inputs.
//
// aapc_perf measures the system only from outside: over loopback
// through aapc_netd / netd::Client, and through the public functions of
// service, core, sync, lowering, mpisim and simnet.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run of one workload produced. `metrics` are the ones the
/// final JSON line carries; `extra` are printed and recorded but not
/// gated (the workload-specific end-to-end figures, validity flags).
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> notes;

  void fail(const std::string& why);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra[name] = Metric{value, unit};
  }
};

/// Host speed. On the shared 4-vCPU reference box the same code runs up
/// to 1.8x slower for minutes at a time (co-tenants on the same physical
/// cores; the guest sees almost no steal time), which moves every wall
/// time with it. calibration_seconds(threads) times a fixed piece of
/// benchmark-owned work: five runs on each of `threads` threads at once,
/// as many as the measured work keeps busy, and the median of them all.
/// A stretch of measurement bracketed by two calibrations is read at the
/// reference speed by multiplying its times by speed_factor() (dividing
/// its rates). The reference is the calibration's time on that box in a
/// calm phase, so the figures read as wall time there. The work under
/// test never runs inside a calibration, so a change to it moves the
/// figures in full. In a slow phase this cut the spread of simulate's
/// throughput over five runs from 35 % to 6 %, and calibrating
/// serve_large on four threads instead of one cut its spread from 20 %
/// to 4 %. One calibration for a whole run does not do it (24 %): the
/// phases change within a run.
inline constexpr double kReferenceCalibration = 3.0e-3;  // s, one thread
/// Four threads share caches and memory bandwidth, so the four-thread
/// calibration takes longer (4.6-4.9 ms on that box while one thread
/// took 3.0-3.6 ms).
inline constexpr double kReferenceCalibration4 = 4.6e-3;  // s, four threads
double calibration_seconds(std::size_t threads = 1);
inline double speed_factor(double before, double after,
                           double reference = kReferenceCalibration) {
  return reference / (0.5 * (before + after));
}

/// Runs a workload's set-up several times and keeps the last result;
/// setup_s is the median, each set-up read at the reference speed. It
/// repeats at least kMinSetups times and until
/// kSetupBudget seconds have gone (at most kMaxSetups times), so a cheap
/// set-up gets enough samples for a steady median. `make(checks)`
/// records its correctness checks in `checks`; the kept set-up's checks
/// count against the run.
inline constexpr std::int32_t kMinSetups = 3;
inline constexpr std::int32_t kMaxSetups = 40;
inline constexpr double kSetupBudget = 1.0;
template <typename Make>
auto repeat_setup(Make make, RunResult& result) {
  std::vector<double> times;
  RunResult checks;
  decltype(make(checks)) setup;
  const Clock::time_point begin = Clock::now();
  double calibration = calibration_seconds();
  while (static_cast<std::int32_t>(times.size()) < kMinSetups ||
         (seconds_since(begin) < kSetupBudget &&
          static_cast<std::int32_t>(times.size()) < kMaxSetups)) {
    setup = {};  // releases the previous set-up (stops its server) first
    checks = RunResult{};
    const Clock::time_point start = Clock::now();
    setup = make(checks);
    const double seconds = seconds_since(start);
    const double after = calibration_seconds();
    times.push_back(seconds * speed_factor(calibration, after));
    calibration = after;
  }
  result.attempted += checks.attempted;
  result.failed += checks.failed;
  result.failures.insert(result.failures.end(), checks.failures.begin(),
                         checks.failures.end());
  result.set("setup_s", median(times), "s");
  result.note("setup_repeats", static_cast<double>(times.size()), "count");
  return setup;
}

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string netd_path;  // aapc_netd binary
  std::string out_dir;    // records and span dumps go here
};

/// Latency of an operation stream cut into windows (a stretch of a
/// loop, or one pass over a fixed batch), each read at the reference
/// speed: latency_p50_ms and the extras latency_p90_ms and
/// latency_p99_ms are each window's own quantile, then the median across
/// the windows, so a stall moves the windows it hits rather than the
/// figure. Only p50 is gated: a tail quantile rests on the few slowest
/// operations of a window (one 1024-rank compile in twelve) and moved by
/// 15-40 % between runs.
void report_latencies(RunResult& result,
                      const std::vector<std::vector<double>>& windows);
/// throughput_rps: the median of per-window operation rates.
void report_throughput(RunResult& result,
                       const std::vector<double>& window_rates);

/// Peak resident set (VmHWM) of a process, in MiB; -1 when unreadable.
double peak_rss_mb(pid_t pid);

/// An aapc_netd child on an ephemeral loopback port. The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class NetdProcess {
 public:
  NetdProcess(const std::string& binary, const std::vector<std::string>& args);
  ~NetdProcess();
  NetdProcess(const NetdProcess&) = delete;
  NetdProcess& operator=(const NetdProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  double peak_rss_mb() const { return perf::peak_rss_mb(pid_); }
  /// Graceful stop; returns the exit status (or -1). Idempotent.
  int stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// FNV-1a digest of a served artifact: the schedule JSON plus the
/// caller->canonical permutation.
std::uint64_t artifact_digest(const std::string& schedule_json,
                              const std::vector<topology::Rank>& to_canonical);

/// One servable request shape: a cluster under one labeling, its wire
/// text, a size and the digest the in-process service gives for it.
struct Cell {
  std::size_t cluster = 0;
  topology::Topology topo;
  std::string text;
  Bytes msize = 0;
  std::uint64_t expected = 0;
};

/// Fills every cell's expected digest from a fresh in-process
/// ScheduleService: the ground truth served responses must match.
void compute_expected(std::vector<Cell>& cells);

/// The hot tenant pool: examples::make_tenant_pool under a fixed pool
/// seed, so every workload seed sees the same clusters.
std::vector<topology::Topology> hot_pool();

/// serve_large's clusters: three 256-rank shapes and one 1024-rank tree
/// (the last one).
std::vector<topology::Topology> large_clusters();

/// serve_churn's fabric: aapc_netd's --fabric-switches star, rebuilt on
/// the client side so requests name the elected tree the server serves.
inline constexpr std::int32_t kFabricSwitches = 8;
inline constexpr std::int32_t kFabricMachines = 6;
stp::SpanningTree fabric_spanning_tree();
std::vector<std::string> fabric_netd_args();

/// The seeded request cells of each served workload (expected digests
/// left at 0) and the seeded order requests draw them in. Cells hold
/// every (cluster, labeling, size) once; sequences index into them.
std::vector<Cell> hot_cells(std::uint64_t seed);
std::vector<Cell> fabric_cells(std::uint64_t seed);
std::vector<Cell> large_cells(std::uint64_t seed);
/// Zipfian over hot clusters, uniform over a cluster's cells.
std::vector<std::size_t> hot_sequence(std::uint64_t seed, std::size_t count);
/// Half fabric cells (indices past the hot cells), half hot_sequence.
std::vector<std::size_t> churn_sequence(std::uint64_t seed, std::size_t count,
                                        std::size_t hot, std::size_t fabric);
/// One request in four for the 1024-rank tree, the rest uniform over the
/// 256-rank cells.
std::vector<std::size_t> large_sequence(std::uint64_t seed, std::size_t count,
                                        const std::vector<Cell>& cells);

/// One batch item of compile_cold: a cluster, a kind, its neighbors and
/// a message size (distinct size classes are distinct cache keys).
struct CompileItem {
  std::string label;
  topology::Topology topo;
  core::CollectiveKind kind = core::CollectiveKind::kAlltoall;
  core::SparseNeighbors neighbors;
  Bytes msize = 0;
};
std::vector<CompileItem> compile_batch(std::uint64_t seed);
/// The 4096-rank fat tree of compile_cold.
topology::Topology tree_4096();

/// Workload entry points (the untraced, measured runs).
RunResult run_serve_hot(const RunOptions& options);
RunResult run_serve_large(const RunOptions& options);
RunResult run_serve_churn(const RunOptions& options);
RunResult run_compile_cold(const RunOptions& options);
RunResult run_simulate(const RunOptions& options);
/// The traced run: replays every workload's seeded sequence in process
/// with spans and reports per-layer metrics.
RunResult run_traced(const RunOptions& options);

}  // namespace aapc::perf
