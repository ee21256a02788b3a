// Benchmark harness: runs AAPC algorithms over simulated clusters and
// renders the paper's evaluation artifacts — a completion-time table
// (Figures 6a/7a/8a) and an aggregate-throughput series with the
// theoretical peak (Figures 6b/7b/8b).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "aapc/common/table.hpp"
#include "aapc/common/units.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::harness {

struct ExperimentConfig {
  simnet::NetworkParams net;
  /// Executor settings shared by every run; each run's numbers come
  /// back in the ExperimentReport.
  mpisim::ExecutorParams exec;
  /// The paper's sweep: 8 KB .. 256 KB.
  std::vector<Bytes> msizes = {8_KiB, 16_KiB, 32_KiB, 64_KiB, 128_KiB,
                               256_KiB};
  /// Measurement repetitions: each iteration runs with a distinct OS
  /// jitter seed (exec.jitter_seed + i) and the completion time is the
  /// average — the simulation analogue of the paper's "10 iterations of
  /// MPI_Alltoall ... average execution time".
  std::int32_t iterations = 3;
};

/// An algorithm entry: display name + builder from message size to the
/// program set (the topology is bound when the entry is created).
struct NamedAlgorithm {
  std::string name;
  std::function<mpisim::ProgramSet(Bytes)> build;
};

/// One algorithm at one message size.
struct RunResult {
  std::string algorithm;
  Bytes msize = 0;
  SimTime completion = 0;
  double throughput_mbps = 0;  // aggregate payload throughput
  std::int64_t messages = 0;   // matched point-to-point messages
};

/// A full sweep over algorithms x message sizes on one topology.
struct ExperimentReport {
  std::string title;
  double peak_mbps = 0;
  std::vector<Bytes> msizes;
  std::vector<std::string> algorithms;
  std::vector<std::vector<RunResult>> results;  // [msize][algorithm]

  /// Paper-style completion table: one row per msize, ms per algorithm.
  TextTable completion_table() const;
  /// Throughput table: one row per msize, Mbps per algorithm + Peak.
  TextTable throughput_table() const;
  /// Both tables with headers, ready to print.
  std::string to_string() const;
};

/// Aggregate AAPC payload throughput in Mbps: |M| * (|M|-1) * msize
/// bytes over `completion` regardless of any synchronization traffic;
/// 0 when `completion` is not positive.
double aapc_mbps(std::int32_t machines, Bytes msize, SimTime completion);

/// `net` with its bandwidth overrides replaced by `capacities`, one
/// entry per LinkId.
simnet::NetworkParams with_link_capacities(
    simnet::NetworkParams net, const std::vector<double>& capacities);

/// Runs one program set config.iterations times and computes the mean
/// completion and its aapc_mbps throughput.
RunResult run_algorithm(const topology::Topology& topo,
                        const NamedAlgorithm& algorithm, Bytes msize,
                        const ExperimentConfig& config);

/// LAM, MPICH (adaptive), and the generated routine bound to `topo`.
/// The generated routine's schedule and sync plan are computed once and
/// shared across message sizes.
std::vector<NamedAlgorithm> standard_suite(
    const topology::Topology& topo,
    const lowering::LoweringOptions& ours_options = {});

/// Sweeps every algorithm over config.msizes.
ExperimentReport run_experiment(const topology::Topology& topo,
                                const std::string& title,
                                const std::vector<NamedAlgorithm>& algorithms,
                                const ExperimentConfig& config = {});

}  // namespace aapc::harness
