// Unit tests for the experiment harness (table rendering, throughput
// math, suite construction) and the topology DOT export.
#include <gtest/gtest.h>

#include "aapc/harness/experiment.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::harness {
namespace {

using topology::make_paper_figure1;
using topology::Topology;

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.msizes = {8_KiB, 64_KiB};
  return config;
}

TEST(HarnessTest, StandardSuiteNamesAndOrder) {
  const Topology topo = make_paper_figure1();
  const auto suite = standard_suite(topo);
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_EQ(suite[0].name, "LAM");
  EXPECT_EQ(suite[1].name, "MPICH");
  EXPECT_EQ(suite[2].name, "Ours");
}

TEST(HarnessTest, ReportTablesHaveOneRowPerSize) {
  const Topology topo = make_paper_figure1();
  const ExperimentReport report = run_experiment(
      topo, "unit", standard_suite(topo), tiny_config());
  EXPECT_EQ(report.completion_table().row_count(), 2u);
  EXPECT_EQ(report.throughput_table().row_count(), 2u);
  const std::string csv = report.completion_table().render_csv();
  EXPECT_NE(csv.find("msize,LAM,MPICH,Ours"), std::string::npos);
  EXPECT_NE(csv.find("8KB"), std::string::npos);
}

TEST(HarnessTest, PeakMatchesTopologyFormula) {
  const Topology topo = topology::make_paper_topology_c();
  const ExperimentConfig config = tiny_config();
  const ExperimentReport report =
      run_experiment(topo, "unit", {}, config);
  EXPECT_NEAR(report.peak_mbps, 387.5, 1e-6);
}

TEST(HarnessTest, RunAlgorithmReportsMessageCount) {
  const Topology topo = make_paper_figure1();
  const auto suite = standard_suite(topo);
  const RunResult lam = run_algorithm(topo, suite[0], 8_KiB, tiny_config());
  EXPECT_EQ(lam.msize, 8_KiB);
  EXPECT_EQ(lam.messages, 30);
  EXPECT_EQ(lam.algorithm, "LAM");
}

TEST(HarnessTest, MsizeSweepIsMonotoneInCompletion) {
  const Topology topo = make_paper_figure1();
  const auto suite = standard_suite(topo);
  ExperimentConfig config;
  config.msizes = {8_KiB, 32_KiB, 128_KiB};
  const ExperimentReport report =
      run_experiment(topo, "unit", suite, config);
  for (std::size_t algo = 0; algo < suite.size(); ++algo) {
    for (std::size_t s = 1; s < config.msizes.size(); ++s) {
      EXPECT_GT(report.results[s][algo].completion,
                report.results[s - 1][algo].completion)
          << suite[algo].name;
    }
  }
}

TEST(HarnessTest, CustomAlgorithmEntry) {
  const Topology topo = make_paper_figure1();
  const std::int32_t ranks = topo.machine_count();
  NamedAlgorithm custom{"custom", [ranks](Bytes msize) {
    mpisim::ProgramSet set;
    set.name = "custom";
    set.data_bytes = msize;
    set.programs.resize(ranks);
    for (topology::Rank r = 0; r < ranks; ++r) {
      set.programs[r].ops.push_back(mpisim::Op::copy());
    }
    return set;
  }};
  const RunResult result =
      run_algorithm(topo, custom, 1_MiB, tiny_config());
  EXPECT_EQ(result.messages, 0);
  EXPECT_GT(result.completion, 0);
}

}  // namespace
}  // namespace aapc::harness

namespace aapc::topology {
namespace {

TEST(TopologyDotTest, DotContainsNodesAndBottleneck) {
  const Topology topo = make_paper_figure1();
  const std::string dot = to_dot(topo);
  EXPECT_NE(dot.find("graph cluster {"), std::string::npos);
  EXPECT_NE(dot.find("\"s1\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"n5\" [shape=ellipse]"), std::string::npos);
  EXPECT_NE(dot.find("\"s0\" -- \"s1\""), std::string::npos);
  // The bottleneck (s0, s1) load-9 link is drawn bold.
  EXPECT_NE(dot.find("label=\"9\", penwidth=3"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(TopologyDotTest, SingleMachineDotOmitsLoads) {
  const Topology topo = make_single_switch(1);
  const std::string dot = to_dot(topo);
  EXPECT_EQ(dot.find("label"), std::string::npos);
  EXPECT_NE(dot.find("\"n0\""), std::string::npos);
}

}  // namespace
}  // namespace aapc::topology
