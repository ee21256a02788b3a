// The offline workloads: compile_cold (cold service compiles plus one
// 4096-rank schedule) and simulate (Executor::run of the generated
// routine, LAM and MPICH on the paper topologies and a 256-rank tree).
// Both run in this process; nothing crosses the network.
#include <unistd.h>

#include <cmath>

#include "aapc/baselines/baselines.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/service/compiler_pool.hpp"
#include "aapc/service/service.hpp"
#include "aapc/topology/generators.hpp"
#include "offline.hpp"
#include "perf.hpp"

namespace aapc::perf {
namespace {

constexpr std::int32_t kAssignWorkers = 4;
constexpr std::int32_t kMinBatches = 3;

/// decompose -> assign_messages_hierarchical (on `pool`) -> verify.
struct Schedule4096 {
  core::VerifyReport report;
  double seconds = 0;
};
Schedule4096 build_schedule_4096(const topology::Topology& topo,
                                 service::CompilerPool& pool) {
  Schedule4096 out;
  const Clock::time_point start = Clock::now();
  const core::Decomposition dec = core::decompose(topo);
  const core::Schedule schedule = core::assign_messages_hierarchical(
      dec, core::AssignmentOptions{},
      [&pool](const std::vector<core::Task>& tasks) { pool.run_tasks(tasks); });
  out.report = core::verify_schedule(topo, schedule);
  out.seconds = seconds_since(start);
  return out;
}

/// |M| (|M| - 1) msize, the AAPC payload.
double payload_bytes(const SimCase& c) {
  const double n = c.topo->machine_count();
  return n * (n - 1) * static_cast<double>(c.msize);
}

}  // namespace

std::string verify_compiled(const CompileItem& item,
                            const core::Schedule& schedule) {
  const core::VerifyReport report =
      item.kind == core::CollectiveKind::kAlltoall
          // Default options demand the peak-bound phase count.
          ? core::verify_schedule(item.topo, schedule)
          : core::verify_collective_schedule(item.topo, schedule,
                                             item.neighbors);
  return report.ok ? std::string() : item.label + ": " + report.summary();
}

RunResult run_compile_cold(const RunOptions& options) {
  RunResult result;
  struct Setup {
    std::vector<CompileItem> batch;
    topology::Topology big;
    std::unique_ptr<service::CompilerPool> pool;
  };
  // One batch: every item through a fresh service (so every key is
  // cold), then the 4096-rank schedule. Returns each operation's time;
  // with `calibrate`, each operation sits between two calibrations and
  // its time is read at the reference speed.
  double compile_s = 0, big_s = 0;
  std::vector<double> calibrations;
  const auto run_batch = [&](const Setup& setup, RunResult& checks,
                             bool calibrate) {
    std::vector<double> seconds;
    service::ScheduleService service;
    double before = calibrate ? calibration_seconds() : 0;
    const auto timed = [&](double raw) {
      if (!calibrate) return raw;
      const double after = calibration_seconds();
      calibrations.push_back(after);
      const double scaled = raw * speed_factor(before, after);
      before = after;
      return scaled;
    };
    compile_s = 0;
    for (const CompileItem& item : setup.batch) {
      ++checks.attempted;
      try {
        const Clock::time_point t = Clock::now();
        const service::CompiledRoutine routine =
            service.compile(item.topo, item.msize, item.kind, item.neighbors);
        seconds.push_back(timed(seconds_since(t)));
        compile_s += seconds.back();
        if (routine.cache_hit) checks.fail(item.label + ": unexpected hit");
        const std::string bad = verify_compiled(item, routine.schedule);
        if (!bad.empty()) checks.fail(bad);
      } catch (const std::exception& e) {
        checks.fail(item.label + ": " + e.what());
      }
    }
    ++checks.attempted;
    const Schedule4096 big = build_schedule_4096(setup.big, *setup.pool);
    seconds.push_back(timed(big.seconds));
    big_s = seconds.back();
    if (!big.report.ok) checks.fail("4096: " + big.report.summary());
    return seconds;
  };
  // Set-up ends with an untimed warm-up batch, which lets the allocator
  // and the pool threads settle so the first timed batch costs what
  // later ones do.
  const Setup setup = repeat_setup(
      [&](RunResult& checks) {
        Setup s{compile_batch(options.seed), tree_4096(),
                std::make_unique<service::CompilerPool>(kAssignWorkers, 64)};
        run_batch(s, checks, false);
        return s;
      },
      result);

  std::vector<std::vector<double>> op_seconds;
  std::vector<double> batch_compile_s, batch_4096_s, batch_rates;
  const Clock::time_point start = Clock::now();
  // Whole batches until --seconds, and at least kMinBatches so the
  // per-batch figures have a middle. A batch's rate is its operations
  // over their summed (calibrated) times.
  while (seconds_since(start) < options.seconds ||
         static_cast<std::int32_t>(op_seconds.size()) < kMinBatches) {
    op_seconds.push_back(run_batch(setup, result, true));
    double busy = 0;
    for (const double s : op_seconds.back()) busy += s;
    batch_rates.push_back(static_cast<double>(op_seconds.back().size()) / busy);
    batch_compile_s.push_back(compile_s);
    batch_4096_s.push_back(big_s);
  }

  report_latencies(result, op_seconds);
  report_throughput(result, batch_rates);
  result.set("peak_rss_mb", peak_rss_mb(getpid()), "MiB");
  result.note("compile_s", median(batch_compile_s), "s");
  result.note("schedule_4096_s", median(batch_4096_s), "s");
  result.note("calibration_ms", median(calibrations) * 1e3, "ms");
  result.notes["traffic"] = "in process; no network";
  return result;
}

std::vector<SimCase> simulate_cases() {
  std::vector<SimCase> cases;
  const Bytes msize = 64_KiB;
  const auto add_topology = [&](const std::string& name,
                                topology::Topology built, bool baselines) {
    const auto topo =
        std::make_shared<const topology::Topology>(std::move(built));
    const std::int32_t n = topo->machine_count();
    const core::Schedule schedule = core::build_aapc_schedule(*topo);
    cases.push_back({name + "/generated", topo, msize,
                     lowering::lower_schedule(*topo, schedule, msize), true});
    if (baselines) {
      cases.push_back({name + "/lam", topo, msize,
                       baselines::lam_alltoall(n, msize), false});
      cases.push_back({name + "/mpich", topo, msize,
                       baselines::mpich_alltoall(n, msize), false});
    }
  };
  add_topology("a", topology::make_paper_topology_a(), true);
  add_topology("b", topology::make_paper_topology_b(), true);
  add_topology("c", topology::make_paper_topology_c(), true);
  add_topology("fat256", topology::make_fat_tree(8, 4, 8), false);
  return cases;
}

mpisim::ExecutorParams sim_params(bool record_trace) {
  mpisim::ExecutorParams params;
  params.record_trace = record_trace;
  return params;
}

RunResult run_simulate(const RunOptions& options) {
  RunResult result;
  const simnet::NetworkParams net;
  const mpisim::ExecutorParams params = sim_params(false);
  struct Setup {
    std::vector<SimCase> cases;
    std::vector<double> completion;  // per case, from the warm-up pass
    std::vector<double> peak_ratios;  // generated cases, warm-up pass
  };
  // One pass: every case once. Returns each run's time. Every run must
  // pass the DeliveryLedger audit; the first pass records each case's
  // completion time, and later passes must match it bit for bit.
  const auto run_pass = [&](Setup& setup, RunResult& checks) {
    std::vector<double> seconds;
    const bool first = setup.completion.empty();
    for (std::size_t i = 0; i < setup.cases.size(); ++i) {
      const SimCase& c = setup.cases[i];
      ++checks.attempted;
      double completion = -1;
      try {
        const Clock::time_point t = Clock::now();
        mpisim::Executor executor(*c.topo, net, params);
        const mpisim::ExecutionResult run = executor.run(c.programs);
        seconds.push_back(seconds_since(t));
        completion = run.completion_time;
        if (!run.integrity.ok()) {
          checks.fail(c.name + ": " + run.integrity.summary());
        }
        if (first && c.generated) {
          setup.peak_ratios.push_back(
              run.aggregate_throughput(payload_bytes(c)) /
              c.topo->peak_aggregate_throughput(
                  net.link_bandwidth_bytes_per_sec));
        }
      } catch (const std::exception& e) {
        checks.fail(c.name + ": " + e.what());
      }
      if (first) {
        setup.completion.push_back(completion);
      } else if (completion != setup.completion[i]) {
        checks.fail(c.name + ": completion time differs between passes");
      }
    }
    return seconds;
  };
  // Set-up builds the programs and ends with an untimed warm-up pass.
  // The seed orders the cases; the simulated inputs stay fixed, so the
  // work per pass is the same for every seed.
  Setup setup = repeat_setup(
      [&](RunResult& checks) {
        Setup s{simulate_cases(), {}, {}};
        Rng rng(options.seed * 0x85EBCA6Bu + 19);
        rng.shuffle(s.cases);
        run_pass(s, checks);
        return s;
      },
      result);

  std::vector<std::vector<double>> op_seconds;
  std::vector<double> pass_seconds, pass_rates;
  std::vector<double> calibrations = {calibration_seconds()};
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass = Clock::now();
    op_seconds.push_back(run_pass(setup, result));
    pass_seconds.push_back(seconds_since(pass));
    pass_rates.push_back(static_cast<double>(op_seconds.back().size()) /
                         pass_seconds.back());
    calibrations.push_back(calibration_seconds());
  } while (seconds_since(start) < options.seconds);
  for (std::size_t p = 0; p < op_seconds.size(); ++p) {
    const double factor = speed_factor(calibrations[p], calibrations[p + 1]);
    for (double& s : op_seconds[p]) s *= factor;
    pass_seconds[p] *= factor;
    pass_rates[p] /= factor;
  }

  report_latencies(result, op_seconds);
  report_throughput(result, pass_rates);
  result.set("peak_rss_mb", peak_rss_mb(getpid()), "MiB");
  result.note("sim_s", median(pass_seconds), "s");
  result.note("calibration_ms", median(calibrations) * 1e3, "ms");

  double log_sum = 0;
  for (const double r : setup.peak_ratios) log_sum += std::log(r);
  result.note("peak_ratio",
              setup.peak_ratios.empty()
                  ? 0
                  : std::exp(log_sum / static_cast<double>(
                                           setup.peak_ratios.size())),
              "ratio");

  result.notes["traffic"] = "in process; no network";
  return result;
}

}  // namespace aapc::perf
