// Network probe: characterizes the simulator the way one would
// calibrate a real cluster with microbenchmarks — effective goodput as
// a function of concurrent flow count for each contention mechanism.
// These are the curves EXPERIMENTS.md's calibration table refers to.
//
// Run:  ./netprobe
//       ./netprobe --faults=demo            (scripted fault timeline)
//       ./netprobe --faults=plan.json       (see faults/fault_plan.hpp
//                                            for the JSON schema; link
//                                            ids are topology LinkIds)
//       ./netprobe --loss-sweep             (scheduled alltoall over the
//                                            lossy packet backend; exits
//                                            nonzero on any integrity
//                                            violation — the CI smoke)
//       ./netprobe --metrics                (run the scheduled alltoall
//                                            and print the metrics
//                                            registry as Prometheus
//                                            text — docs/OBSERVABILITY.md)
//       ./netprobe --flight=DIR             (same run with the flight
//                                            recorder on; writes the
//                                            ring dump into DIR and
//                                            prints the analyzer's
//                                            verdict — see
//                                            docs/OBSERVABILITY.md
//                                            §flight-recorder)
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "aapc/common/cli.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/analyze.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/harness/loss_sweep.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"

using namespace aapc;

namespace {

/// Aggregate goodput (Mbps) of `flows` simultaneous transfers described
/// by (src, dst) rank pairs, each moving `bytes`.
double measure(const topology::Topology& topo,
               const simnet::NetworkParams& params,
               const std::vector<std::pair<topology::Rank, topology::Rank>>&
                   flows,
               Bytes bytes) {
  simnet::FluidNetwork network(topo, params);
  for (const auto& [src, dst] : flows) {
    network.add_flow(topo.machine_node(src), topo.machine_node(dst), bytes,
                     0);
  }
  std::vector<simnet::FlowId> completed;
  while (!network.idle()) {
    network.advance_to(network.next_event_time(), completed);
  }
  const double total =
      static_cast<double>(bytes) * static_cast<double>(flows.size());
  return bytes_per_sec_to_mbps(total / network.now());
}

/// Fault-injection probe: four flows across the trunk of a two-switch
/// chain while the plan's capacity timeline plays out. Prints the
/// aggregate-rate timeline (one row per simulation event) and the fault
/// markers; if the plan leaves the network unable to progress (links
/// down with no scripted recovery), reports the stuck flows instead of
/// spinning.
int run_fault_probe(const std::string& spec) {
  const topology::Topology topo = topology::make_chain({4, 4});
  // The trunk: the only switch-to-switch link of the chain.
  topology::LinkId trunk = -1;
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.is_machine(topo.edge_source(2 * l)) &&
        !topo.is_machine(topo.edge_target(2 * l))) {
      trunk = l;
      break;
    }
  }

  faults::FaultPlan plan;
  if (spec == "demo") {
    plan.add(faults::FaultEvent::link_degrade(milliseconds(30), trunk, 0.4))
        .add(faults::FaultEvent::link_down(milliseconds(60), trunk))
        .add(faults::FaultEvent::link_up(milliseconds(90), trunk));
  } else {
    std::ifstream in(spec);
    AAPC_REQUIRE(in.good(), "cannot open fault plan " << spec);
    std::ostringstream text;
    text << in.rdbuf();
    plan = faults::fault_plan_from_json(text.str());
  }

  const simnet::NetworkParams params;
  // Plan links ARE topology LinkIds here (identity map — netprobe runs
  // on a plain tree, no bridge election in between).
  const faults::CompiledFaults compiled =
      faults::compile(plan, params, topo.link_count());
  std::cout << "fault probe: 4 flows across the trunk (link "
            << trunk << ") of a 4+4 chain, plan \"" << spec << "\"\n";
  for (const mpisim::FaultMarker& marker : compiled.markers) {
    std::cout << "  plan: " << format_double(to_milliseconds(marker.time), 1)
              << "ms " << marker.label << '\n';
  }

  simnet::FluidNetwork network(topo, params);
  for (const simnet::LinkCapacityEvent& event : compiled.capacity_events) {
    network.schedule_capacity_change(event.when, event.link,
                                     event.bandwidth_bytes_per_sec);
  }
  std::vector<simnet::FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(network.add_flow(topo.machine_node(i),
                                   topo.machine_node(4 + i), 512_KiB, 0));
  }

  TextTable timeline;
  timeline.set_header({"t (ms)", "in flight", "aggregate Mbps"});
  std::vector<simnet::FlowId> completed;
  while (!network.idle()) {
    const SimTime next = network.next_event_time();
    if (next == simnet::kNever) {
      // Stuck-flow guard: nothing will ever complete. Name the flows.
      std::cout << timeline.render();
      std::cout << "STUCK at " << format_double(to_milliseconds(network.now()), 1)
                << "ms — no future event; the plan leaves these flows at "
                   "rate 0 with no scripted recovery:\n";
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const double remaining = network.flow_remaining(ids[i]);
        if (remaining > 0 && network.flow_rate(ids[i]) <= 0) {
          std::cout << "  flow " << i << ": rank " << i << " -> rank "
                    << 4 + i << ", "
                    << format_double(remaining, 0) << " bytes undelivered\n";
        }
      }
      return 1;
    }
    network.advance_to(next, completed);
    double aggregate = 0;
    std::int32_t in_flight = 0;
    for (const simnet::FlowId id : ids) {
      if (network.flow_remaining(id) > 0) ++in_flight;
      aggregate += network.flow_rate(id);
    }
    timeline.add_row({format_double(to_milliseconds(network.now()), 2),
                      std::to_string(in_flight),
                      format_double(bytes_per_sec_to_mbps(aggregate), 1)});
  }
  std::cout << timeline.render();
  std::cout << "all flows drained at "
            << format_double(to_milliseconds(network.now()), 1) << "ms; "
            << network.stats().capacity_changes
            << " capacity change(s) applied\n";
  return 0;
}

/// Loss-sweep smoke: the scheduled alltoall of a 4+4 chain executed
/// over the lossy packet backend (harness::run_loss_sweep), then one
/// direct packet scenario at 1% loss showing *which* flows suffered —
/// per-message retransmission counts and the per-port peak queue
/// depths that aggregate totals hide. Exits nonzero on any integrity
/// violation.
int run_loss_sweep_probe() {
  const topology::Topology topo = topology::make_chain({4, 4});
  harness::LossSweepConfig config;
  config.msize = 16_KiB;
  const harness::LossSweepReport report =
      harness::run_loss_sweep(topo, "4+4 chain", config);
  std::cout << report.to_string() << "\n\n";

  // Per-flow detail: 7 trunk flows under 1% Bernoulli loss,
  // selective repeat.
  packetsim::PacketNetworkParams params;
  params.transport = packetsim::PacketNetworkParams::Transport::kSelectiveRepeat;
  params.faults.loss_rate = 0.01;
  std::vector<packetsim::PacketMessage> messages;
  for (topology::Rank s = 0; s < 4; ++s) {
    messages.push_back({s, static_cast<topology::Rank>(4 + s), 256_KiB, 0});
  }
  for (topology::Rank s = 1; s < 4; ++s) {
    messages.push_back({s, 0, 256_KiB, 0});
  }
  const packetsim::PacketResult result =
      packetsim::simulate_packets(topo, messages, params);
  TextTable flows;
  flows.set_header({"flow", "completion (ms)", "retransmissions"});
  for (std::size_t m = 0; m < messages.size(); ++m) {
    flows.add_row({str_cat("rank ", messages[m].src, " -> rank ",
                           messages[m].dst),
                   format_double(to_milliseconds(result.completion[m]), 2),
                   std::to_string(result.message_retransmissions[m])});
  }
  std::cout << "per-flow fault detail (7 flows, 1% loss, selective repeat)\n"
            << flows.render();
  TextTable queues;
  queues.set_header({"directed edge", "peak queue (segments)"});
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    if (result.peak_queue_segments[static_cast<std::size_t>(e)] < 2) continue;
    queues.add_row(
        {str_cat(topo.name(topo.edge_source(e)), " -> ",
                 topo.name(topo.edge_target(e))),
         std::to_string(
             result.peak_queue_segments[static_cast<std::size_t>(e)])});
  }
  std::cout << "\ncongested ports (peak queue >= 2)\n" << queues.render()
            << "peak occupancy overall: " << result.peak_queue_occupancy
            << " segments; " << result.segments_lost << " segments lost, "
            << result.retransmissions << " retransmissions\n";

  if (!report.all_ok()) {
    std::cout << "\nFAIL: integrity violation in the loss sweep\n";
    return 1;
  }
  std::cout << "\nPASS: every transfer delivered exactly once at every "
               "loss rate\n";
  return 0;
}

/// Metrics probe: one scheduled alltoall on paper topology C with the
/// executor's metrics sink wired to a registry, exposed as Prometheus
/// text on stdout (scrape-shaped; also the CI smoke for the text
/// exporter). The same registry run twice would accumulate — counters
/// are cumulative across runs by design.
int run_metrics_probe() {
  const topology::Topology topo = topology::make_paper_topology_c();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 32_KiB, {});

  obs::Registry registry;
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.metrics = &registry;
  mpisim::Executor executor(topo, net, exec);
  const mpisim::ExecutionResult result = executor.run(set);

  std::cout << obs::to_prometheus_text(registry.snapshot());
  if (!result.integrity.ok()) {
    std::cerr << "FAIL: integrity violation in the metrics probe run\n";
    return 1;
  }
  return 0;
}

/// Flight probe: the scheduled alltoall on paper topology C with the
/// flight recorder wired in; writes the ring dump into `dir` and runs
/// the analyzer on it (a healthy run — the analyzer should stay
/// silent). The dump is `aapc_analyze --load` / flight::read_dump_file
/// material.
int run_flight_probe(const std::string& dir) {
  const topology::Topology topo = topology::make_paper_topology_c();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  // The analyzer needs the same sync plan the lowering used (token tags
  // are numbered by position in plan.edges), so build it once and share.
  const sync::SyncPlan plan = sync::build_sync_plan(topo, schedule);
  lowering::LoweringOptions lopts;
  lopts.precomputed_plan = &plan;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 32_KiB, lopts);

  flight::Recorder recorder(topo.machine_count());
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.flight = &recorder;
  mpisim::Executor executor(topo, net, exec);
  const mpisim::ExecutionResult result = executor.run(set);

  const flight::FlightDump dump =
      flight::snapshot(recorder, "netprobe --flight");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/netprobe.flt";
  flight::write_dump_file(dump, path);

  const flight::AnalysisReport report =
      flight::analyze(dump, topo, &schedule, &plan);
  std::cout << "flight probe: wrote " << path << " ("
            << report.events_analyzed << " events, "
            << report.transfers_observed << " transfers)\n"
            << report.summary();
  if (!result.integrity.ok()) {
    std::cerr << "FAIL: integrity violation in the flight probe run\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Characterizes the simulator's contention curves; with --faults, "
      "replays a scripted link-fault timeline against trunk flows.");
  cli.add_flag("faults",
               "fault plan: a JSON file (see faults/fault_plan.hpp) or "
               "'demo' for a built-in degrade/down/up timeline");
  cli.add_flag("loss-sweep",
               "run the scheduled alltoall over the lossy packet backend "
               "and audit end-to-end integrity (nonzero exit on violation)");
  cli.add_flag("metrics",
               "run the scheduled alltoall with the metrics registry wired "
               "in and print it as Prometheus text exposition");
  cli.add_flag("flight",
               "run the scheduled alltoall with the flight recorder on and "
               "write the ring dump into this directory");
  if (!cli.parse(argc, argv)) {
    std::cout << cli.help_text();
    return 0;
  }
  if (cli.has("faults")) return run_fault_probe(cli.get("faults"));
  if (cli.has("loss-sweep")) return run_loss_sweep_probe();
  if (cli.has("metrics")) return run_metrics_probe();
  if (cli.has("flight")) return run_flight_probe(cli.get("flight"));

  const simnet::NetworkParams params;  // the calibrated defaults
  const Bytes bytes = 1_MiB;

  std::cout << "simnet contention curves (calibrated defaults, "
            << format_double(
                   bytes_per_sec_to_mbps(params.effective_bandwidth()), 1)
            << " Mbps effective per link direction)\n\n";

  // 1. Incast: k senders, one receiver, one switch.
  {
    const topology::Topology topo = topology::make_single_switch(25);
    TextTable table;
    table.set_header({"senders -> 1 receiver", "aggregate Mbps",
                      "efficiency"});
    for (const int k : {1, 2, 4, 8, 16, 23}) {
      std::vector<std::pair<topology::Rank, topology::Rank>> flows;
      for (int i = 0; i < k; ++i) {
        flows.emplace_back(static_cast<topology::Rank>(i + 1), 0);
      }
      const double mbps = measure(topo, params, flows, bytes);
      table.add_row({std::to_string(k), format_double(mbps, 1),
                     format_double(
                         mbps / bytes_per_sec_to_mbps(
                                    params.effective_bandwidth()),
                         2)});
    }
    std::cout << "incast (many-to-one)\n" << table.render() << '\n';
  }

  // 2. Trunk multiplexing: k disjoint flows across one switch-switch
  // link.
  {
    const topology::Topology topo = topology::make_chain({24, 24});
    TextTable table;
    table.set_header({"flows across trunk", "aggregate Mbps",
                      "efficiency"});
    for (const int k : {1, 2, 4, 8, 16, 24}) {
      std::vector<std::pair<topology::Rank, topology::Rank>> flows;
      for (int i = 0; i < k; ++i) {
        flows.emplace_back(static_cast<topology::Rank>(i),
                           static_cast<topology::Rank>(24 + i));
      }
      const double mbps = measure(topo, params, flows, bytes);
      table.add_row({std::to_string(k), format_double(mbps, 1),
                     format_double(
                         mbps / bytes_per_sec_to_mbps(
                                    params.effective_bandwidth()),
                         2)});
    }
    std::cout << "trunk multiplexing (disjoint endpoints)\n"
              << table.render() << '\n';
  }

  // 3. Switch fabric: k disjoint same-switch pairs.
  {
    const topology::Topology topo = topology::make_single_switch(48);
    TextTable table;
    table.set_header({"disjoint pairs in one switch", "aggregate Mbps",
                      "per-flow efficiency"});
    for (const int k : {1, 4, 8, 12, 18, 24}) {
      std::vector<std::pair<topology::Rank, topology::Rank>> flows;
      for (int i = 0; i < k; ++i) {
        flows.emplace_back(static_cast<topology::Rank>(2 * i),
                           static_cast<topology::Rank>(2 * i + 1));
      }
      const double mbps = measure(topo, params, flows, bytes);
      table.add_row(
          {std::to_string(k), format_double(mbps, 1),
           format_double(mbps / (k * bytes_per_sec_to_mbps(
                                         params.effective_bandwidth())),
                         2)});
    }
    std::cout << "switch fabric saturation\n" << table.render() << '\n';
  }

  // 4. Duplex: one pair, one vs two directions.
  {
    const topology::Topology topo = topology::make_single_switch(2);
    const double one =
        measure(topo, params, {{0, 1}}, bytes);
    const double both =
        measure(topo, params, {{0, 1}, {1, 0}}, bytes);
    std::cout << "end-host duplex\n"
              << "one direction:  " << format_double(one, 1) << " Mbps\n"
              << "both directions: " << format_double(both, 1)
              << " Mbps aggregate ("
              << format_double(both / (2 * one), 2)
              << " of 2x one-way)\n";
  }
  // 5. Hot-path structure counters: a staggered all-to-all on paper
  // topology C, reported straight from NetworkStats. pending_heap_pushes
  // counts deferred activations (heap traffic); max_active_rows is the
  // high-water mark of the active-row set progressive filling walks —
  // the effective problem size per rate recomputation, independent of
  // topology size.
  {
    const topology::Topology topo = topology::make_paper_topology_c();
    simnet::FluidNetwork network(topo, params);
    const std::int32_t machines = topo.machine_count();
    std::int64_t added = 0;
    for (topology::Rank src = 0; src < machines; ++src) {
      for (topology::Rank dst = 0; dst < machines; ++dst) {
        if (src == dst) continue;
        network.add_flow(topo.machine_node(src), topo.machine_node(dst),
                         64_KiB, 1e-4 * static_cast<double>(src));
        ++added;
      }
    }
    std::vector<simnet::FlowId> completed;
    while (!network.idle()) {
      network.advance_to(network.next_event_time(), completed);
    }
    const simnet::NetworkStats& stats = network.stats();
    TextTable table;
    table.set_header({"hot-path counter", "value"});
    table.add_row({"flows completed", std::to_string(stats.completed_flows)});
    table.add_row({"rate recomputations",
                   std::to_string(stats.rate_recomputations)});
    table.add_row({"max concurrent flows",
                   std::to_string(stats.max_concurrent_flows)});
    table.add_row({"pending-heap pushes",
                   std::to_string(stats.pending_heap_pushes)});
    table.add_row({"max active capacity rows",
                   std::to_string(stats.max_active_rows)});
    std::cout << "\nsimulator hot-path statistics (staggered all-to-all, "
              << "paper topology C, " << added << " flows)\n"
              << table.render();
  }
  return 0;
}
