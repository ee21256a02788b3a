// aapc_perf: the repository benchmark program (BENCHMARK.json at the
// repository root, workloads described in WORKLOADS.md next to this
// file). Runs one workload for --seconds,
// checks every output, prints each metric by name with its unit, writes
// a result record with provenance, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 1 runs the traced replay instead and reports per-layer
// metrics. Exits nonzero when any correctness gate failed.
//
// Run:  aapc_perf --workload simulate --seed 1 --seconds 20 --trace 0
//           --netd <path to aapc_netd> --out <record directory>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "aapc/common/cli.hpp"
#include "perf.hpp"

namespace {

using namespace aapc;
using namespace aapc::perf;

std::string number(double value) {
  // All digits, and never a non-JSON token: a non-finite value only
  // arises from failed requests, which the run already reports.
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("aapc_perf: one benchmark for serving, compiling and "
                "simulating AAPC schedules.");
  cli.add_flag("workload",
               "serve_hot | serve_large | compile_cold | simulate | "
               "serve_churn");
  cli.add_flag("seed", "workload seed", "1");
  cli.add_flag("seconds", "measured seconds", "10");
  cli.add_flag("trace", "1 = traced per-layer run", "0");
  cli.add_flag("netd", "path of the aapc_netd binary");
  cli.add_flag("out", "directory for result records and span dumps", ".");
  cli.add_flag("commit", "source revision the binary was built from",
               "unknown");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 2;
  }
  RunOptions options;
  options.workload = cli.get_or("workload", "");
  options.seed = cli.get_u64("seed", 1);
  options.seconds = cli.get_double("seconds", 10);
  options.trace = cli.get_u64("trace", 0) != 0;
  options.netd_path = cli.get_or("netd", "");
  options.out_dir = cli.get_or("out", ".");
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  RunResult result;
  try {
    if (options.trace) {
      result = run_traced(options);
    } else if (options.workload == "serve_hot") {
      result = run_serve_hot(options);
    } else if (options.workload == "serve_large") {
      result = run_serve_large(options);
    } else if (options.workload == "compile_cold") {
      result = run_compile_cold(options);
    } else if (options.workload == "simulate") {
      result = run_simulate(options);
    } else if (options.workload == "serve_churn") {
      result = run_serve_churn(options);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  if (result.attempted < 1) result.attempted = 1;

  // Provenance: where and from what these numbers came.
  const std::string provenance =
      "{\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + json_string(AAPC_PERF_BUILD_TYPE) +
      ", \"compiler\": " + json_string(AAPC_PERF_COMPILER) +
      ", \"commit\": " + json_string(cli.get_or("commit", "unknown")) +
      ", \"traffic\": " +
      json_string(result.notes.count("traffic") ? result.notes["traffic"]
                                           : "in process; no network") +
      "}";
  std::cout << "provenance " << provenance << "\n";
  for (const auto& [name, metric] : result.metrics) {
    std::cout << "metric " << name << " " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const auto& [name, metric] : result.extra) {
    std::cout << "extra " << name << " " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const auto& [name, text] : result.notes) {
    std::cout << "note " << name << ": " << text << "\n";
  }
  for (const std::string& why : result.failures) {
    std::cout << "FAILED " << why << "\n";
  }

  const bool correct = result.failed == 0;
  std::string record = "{\"workload\": " + json_string(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"provenance\": " + provenance +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": " + metrics_json(result.metrics) +
                       ", \"extra\": " + metrics_json(result.extra) + "}";
  std::ofstream(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" +
                (options.trace ? "1" : "0") + ".json")
      << record << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(result.metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
