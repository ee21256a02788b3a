#include "aapc/harness/experiment.hpp"

#include <memory>
#include <sstream>

#include "aapc/baselines/baselines.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"

namespace aapc::harness {

TextTable ExperimentReport::completion_table() const {
  TextTable table;
  std::vector<std::string> header{"msize"};
  for (const std::string& algo : algorithms) header.push_back(algo);
  table.set_header(std::move(header));
  for (std::size_t s = 0; s < msizes.size(); ++s) {
    std::vector<std::string> row{format_size(msizes[s]) + "B"};
    for (const RunResult& r : results[s]) {
      row.push_back(format_double(to_milliseconds(r.completion), 1) + "ms");
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable ExperimentReport::throughput_table() const {
  TextTable table;
  std::vector<std::string> header{"msize"};
  for (const std::string& algo : algorithms) header.push_back(algo);
  header.push_back("Peak");
  table.set_header(std::move(header));
  for (std::size_t s = 0; s < msizes.size(); ++s) {
    std::vector<std::string> row{format_size(msizes[s]) + "B"};
    for (const RunResult& r : results[s]) {
      row.push_back(format_double(r.throughput_mbps, 1));
    }
    row.push_back(format_double(peak_mbps, 1));
    table.add_row(std::move(row));
  }
  return table;
}

std::string ExperimentReport::to_string() const {
  std::ostringstream os;
  os << title << "\n\n(a) completion time\n"
     << completion_table().render()
     << "\n(b) aggregate throughput (Mbps)\n"
     << throughput_table().render();
  return os.str();
}

double aapc_mbps(std::int32_t machines, Bytes msize, SimTime completion) {
  const double m = static_cast<double>(machines);
  const double payload = m * (m - 1) * static_cast<double>(msize);
  return bytes_per_sec_to_mbps(completion > 0 ? payload / completion : 0.0);
}

simnet::NetworkParams with_link_capacities(
    simnet::NetworkParams net, const std::vector<double>& capacities) {
  net.link_bandwidth_overrides.clear();
  for (std::size_t l = 0; l < capacities.size(); ++l) {
    net.link_bandwidth_overrides.emplace_back(static_cast<std::int32_t>(l),
                                              capacities[l]);
  }
  return net;
}

RunResult run_algorithm(const topology::Topology& topo,
                        const NamedAlgorithm& algorithm, Bytes msize,
                        const ExperimentConfig& config) {
  AAPC_REQUIRE(config.iterations >= 1, "need at least one iteration");
  const mpisim::ProgramSet set = algorithm.build(msize);
  SimTime total = 0;
  std::int64_t messages = 0;
  for (std::int32_t i = 0; i < config.iterations; ++i) {
    mpisim::ExecutorParams exec_params = config.exec;
    exec_params.jitter_seed = config.exec.jitter_seed +
                              static_cast<std::uint64_t>(i) * 0x9e37ull;
    const mpisim::ExecutionResult exec =
        mpisim::Executor(topo, config.net, exec_params).run(set);
    total += exec.completion_time;
    messages = exec.message_count;
  }
  RunResult result;
  result.algorithm = algorithm.name;
  result.msize = msize;
  result.completion = total / config.iterations;
  result.throughput_mbps =
      aapc_mbps(topo.machine_count(), msize, result.completion);
  result.messages = messages;
  return result;
}

std::vector<NamedAlgorithm> standard_suite(
    const topology::Topology& topo,
    const lowering::LoweringOptions& ours_options) {
  const std::int32_t ranks = topo.machine_count();
  std::vector<NamedAlgorithm> suite;
  suite.push_back(NamedAlgorithm{
      "LAM", [ranks](Bytes msize) {
        return baselines::lam_alltoall(ranks, msize);
      }});
  suite.push_back(NamedAlgorithm{
      "MPICH", [ranks](Bytes msize) {
        return baselines::mpich_alltoall(ranks, msize);
      }});
  // The generated routine: schedule once, verify once, lower per size.
  auto schedule = std::make_shared<core::Schedule>(
      core::build_aapc_schedule(topo));
  const core::VerifyReport report = core::verify_schedule(topo, *schedule);
  AAPC_CHECK_MSG(report.ok, report.summary());
  suite.push_back(NamedAlgorithm{
      "Ours", [&topo, schedule, ours_options](Bytes msize) {
        return lowering::lower_schedule(topo, *schedule, msize,
                                        ours_options);
      }});
  return suite;
}

ExperimentReport run_experiment(const topology::Topology& topo,
                                const std::string& title,
                                const std::vector<NamedAlgorithm>& algorithms,
                                const ExperimentConfig& config) {
  ExperimentReport report;
  report.title = title;
  report.peak_mbps = bytes_per_sec_to_mbps(topo.peak_aggregate_throughput(
      config.net.link_bandwidth_bytes_per_sec));
  report.msizes = config.msizes;
  for (const NamedAlgorithm& algo : algorithms) {
    report.algorithms.push_back(algo.name);
  }
  for (const Bytes msize : config.msizes) {
    std::vector<RunResult> row;
    row.reserve(algorithms.size());
    for (const NamedAlgorithm& algo : algorithms) {
      row.push_back(run_algorithm(topo, algo, msize, config));
    }
    report.results.push_back(std::move(row));
  }
  return report;
}

}  // namespace aapc::harness
