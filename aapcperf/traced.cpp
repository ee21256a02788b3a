// The traced run (--trace 1). It replays every workload's seeded
// sequence in this process, calling each layer's public function inside
// a span, and reports per-layer metrics from the spans' self times:
//
//   serve_hot    parse -> canonicalize -> ScheduleService::compile (hit)
//                -> schedule_to_json -> encode_response, per request;
//                the same requests once more over the wire, for netd's
//                own share of the round trip
//   serve_large  the same request path on 256/1024-rank clusters, plus
//                the two relabelings a hit performs (schedule, programs)
//   serve_churn  the request path against a service bound to the
//                fabric, with link events applied to its epoch feed
//   compile_cold the service's compile pipeline stage by stage
//                (decompose/assign or collective build, verify, sync
//                plan, lower), the same keys through a cold service, and
//                the 4096-rank schedule at 1, 2 and 4 assign workers
//   simulate     Executor::run, then its recorded flows re-driven
//                through FluidNetwork alone
//
// Checks: the requests' stages add up to their totals within
// kReconcileShare (see reconcile()); the compile stage spans agree
// with the service's aapc_service_stage_*_seconds series within
// kStageTolerance; outputs pass the same gates as the untraced runs.
// The selected workload's replay also runs once untraced first; the
// difference is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "aapc/core/collectives.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/netd/client.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/service/service.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/io.hpp"
#include "offline.hpp"
#include "perf.hpp"
#include "spans.hpp"

namespace aapc::perf {
namespace {

constexpr double kReconcileShare = 0.05;
constexpr double kReconcileSlack = 20e-6;  // seconds
constexpr double kReconcileOutliers = 0.01;
constexpr double kStageTolerance = 0.35;   // |service / spans - 1|
constexpr std::size_t kHotRequests = 3000;
constexpr std::size_t kWireRequests = 1000;
constexpr std::size_t kLargeRequests = 24;
constexpr std::size_t kChurnRequests = 600;
constexpr std::size_t kChurnEvery = 60;  // requests between link events

/// Everything one served request produced, for the caller's checks.
struct Served {
  service::CompiledRoutine routine;
  std::uint64_t digest = 0;
  std::size_t json_bytes = 0;
  std::size_t frame_bytes = 0;
  double seconds = 0;
};

/// The serving path of one request, in process, one span per layer
/// call, under a root span named `root`.
Served serve_request(Tracer& tracer, const std::string& root,
                     std::uint64_t id, service::ScheduleService& service,
                     const Cell& cell) {
  Served out;
  Tracer::Scope request(tracer, root, id);
  topology::Topology topo;
  {
    Tracer::Scope span(tracer, "topology.parse", id);
    topo = topology::parse_topology(cell.text);
  }
  service::Canonicalization canon;
  {
    Tracer::Scope span(tracer, "service.canonicalize", id);
    canon = service::canonicalize(topo);
  }
  {
    Tracer::Scope span(tracer, "service.compile", id);
    out.routine = service.compile(topo, cell.msize, canon);
    span.rename(out.routine.stale       ? "service.stale_hit"
                : out.routine.cache_hit ? "service.hit"
                                        : "service.miss");
  }
  netd::ResponseFrame response;
  response.request_id = id;
  response.cache_hit = out.routine.cache_hit;
  response.stale = out.routine.stale;
  response.epoch = out.routine.epoch;
  response.canonical_hash = canon.hash;
  response.to_canonical = out.routine.to_canonical;
  {
    Tracer::Scope span(tracer, "core.schedule_json", id);
    response.schedule_json =
        core::schedule_to_json(out.routine.schedule, topo.machine_count());
  }
  std::string frame;
  {
    Tracer::Scope span(tracer, "netd.encode", id);
    frame = netd::encode_response(response);
  }
  request.close();
  out.seconds = request.seconds();
  out.json_bytes = response.schedule_json.size();
  out.frame_bytes = frame.size();
  out.digest = artifact_digest(response.schedule_json, response.to_canonical);
  return out;
}

/// Compiles every cell once (warming the service) and records the
/// digest it answers with as the cell's expected artifact.
void warm_in_process(service::ScheduleService& service,
                     std::vector<Cell>& cells) {
  for (Cell& cell : cells) {
    const service::CompiledRoutine routine =
        service.compile(cell.topo, cell.msize);
    cell.expected = artifact_digest(
        core::schedule_to_json(routine.schedule, cell.topo.machine_count()),
        routine.to_canonical);
  }
}

std::string contention_error(const Cell& cell, const core::Schedule& s) {
  try {
    core::require_contention_free(cell.topo, s);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

// ---- served replays -------------------------------------------------------

double replay_hot(const RunOptions& options, Tracer& tracer,
                  RunResult& result, const NetdProcess* netd) {
  std::vector<Cell> cells = hot_cells(options.seed);
  service::ScheduleService service;
  warm_in_process(service, cells);
  const std::vector<std::size_t> sequence =
      hot_sequence(options.seed, kHotRequests);
  std::vector<double> totals;
  std::int64_t hits = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const Cell& cell = cells[sequence[i]];
    const Served served =
        serve_request(tracer, "serve_hot.request", i + 1, service, cell);
    totals.push_back(served.seconds);
    hits += served.routine.cache_hit ? 1 : 0;
    ++result.attempted;
    if (served.digest != cell.expected) result.fail("hot replay: digest");
  }
  const double seconds = seconds_since(start);
  if (netd == nullptr) return seconds;

  result.set("service.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(sequence.size()),
             "ratio");
  // The same requests over loopback: netd's share is the round trip
  // minus the in-process sum of the same request.
  netd::Client client("127.0.0.1", netd->port());
  for (const Cell& cell : cells) client.compile_serialized(cell.text, cell.msize);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < kWireRequests && i < sequence.size(); ++i) {
    const Cell& cell = cells[sequence[i]];
    const Clock::time_point sent = Clock::now();
    ++result.attempted;
    try {
      const netd::ResponseFrame resp =
          client.compile_serialized(cell.text, cell.msize);
      overhead.push_back(seconds_since(sent) - totals[i]);
      if (artifact_digest(resp.schedule_json, resp.to_canonical) !=
          cell.expected) {
        result.fail("hot wire replay: digest");
      }
    } catch (const std::exception& e) {
      result.fail(std::string("hot wire replay: ") + e.what());
    }
  }
  result.set("netd.overhead_ms", median(overhead) * 1e3, "ms");
  const obs::RegistrySnapshot server =
      obs::snapshot_from_json(client.fetch_metrics_json());
  result.set("netd.rejects", server.total("aapc_netd_rejects_total"),
             "count");
  return seconds;
}

double replay_large(const RunOptions& options, Tracer& tracer,
                    RunResult& result) {
  std::vector<Cell> cells = large_cells(options.seed);
  service::ScheduleService service;
  warm_in_process(service, cells);
  const std::vector<std::size_t> sequence =
      large_sequence(options.seed, kLargeRequests, cells);
  double json_bytes = 0, frame_bytes = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const Cell& cell = cells[sequence[i]];
    const Served served =
        serve_request(tracer, "serve_large.request", i + 1, service, cell);
    ++result.attempted;
    if (served.digest != cell.expected) result.fail("large replay: digest");
    json_bytes += static_cast<double>(served.json_bytes);
    frame_bytes += static_cast<double>(served.frame_bytes);
    // The two relabelings a hit performs, each on its own.
    const std::vector<topology::Rank> from_canonical =
        core::invert_permutation(served.routine.to_canonical);
    Tracer::Scope probe(tracer, "serve_large.probe", i + 1);
    {
      Tracer::Scope span(tracer, "service.relabel_schedule", i + 1);
      core::relabel_schedule(served.routine.entry->schedule, from_canonical);
    }
    {
      Tracer::Scope span(tracer, "mpisim.relabel_programs", i + 1);
      mpisim::relabel_program_set(served.routine.entry->programs,
                                  from_canonical);
    }
  }
  const double seconds = seconds_since(start);
  const double n = static_cast<double>(sequence.size());
  result.set("core.schedule_json_bytes", json_bytes / n, "bytes");
  result.set("netd.response_bytes", frame_bytes / n, "bytes");
  result.set("service.pool_peak_queue",
             service.metrics_snapshot().value("aapc_service_peak_queue_depth"),
             "count");
  return seconds;
}

double replay_churn(const RunOptions& options, Tracer& tracer,
                    RunResult& result) {
  service::ScheduleService service;
  // Bind the fabric's elected tree the way aapc_netd does: one binding
  // per forwarding bridge link, in canonical link ids.
  const stp::SpanningTree tree = fabric_spanning_tree();
  const service::Canonicalization canon = service::canonicalize(tree.topology);
  std::vector<service::TopologyEpochs::LinkBinding> bindings;
  for (std::size_t b = 0; b < tree.forwarding.size(); ++b) {
    const topology::LinkId link = tree.link_of_bridge_link[b];
    if (tree.forwarding[b] && link >= 0) {
      bindings.push_back({static_cast<std::int32_t>(b),
                          canon.link_to_canonical[static_cast<std::size_t>(
                              link)]});
    }
  }
  service.epochs().bind(canon.hash, bindings, tree.topology.link_count());

  std::vector<Cell> cells = hot_cells(options.seed);
  const std::size_t hot = cells.size();
  std::vector<Cell> fabric = fabric_cells(options.seed);
  cells.insert(cells.end(), fabric.begin(), fabric.end());
  warm_in_process(service, cells);
  const std::vector<std::size_t> sequence =
      churn_sequence(options.seed, kChurnRequests, hot, fabric.size());
  Rng rng(options.seed * 0x1B873593u + 13);
  std::int32_t trunk = 0;
  std::uint64_t events = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i % kChurnEvery == kChurnEvery / 2) {
      const bool degrade = events % 2 == 0;
      if (degrade) trunk = static_cast<std::int32_t>(
                       rng.next_below(kFabricSwitches));
      Tracer::Scope span(tracer, "service.link_event", 0);
      service.epochs().link_event(trunk, degrade ? 0.5 : 1.0);
      ++events;
    }
    const Cell& cell = cells[sequence[i]];
    const Served served =
        serve_request(tracer, "serve_churn.request", i + 1, service, cell);
    ++result.attempted;
    if (sequence[i] >= hot) {
      const std::string bad = contention_error(cell, served.routine.schedule);
      if (!bad.empty()) result.fail("churn replay: " + bad);
    } else if (served.digest != cell.expected) {
      result.fail("churn replay: digest");
    }
  }
  const double seconds = seconds_since(start);
  ++result.attempted;
  if (service.epochs().epoch() != events) {
    result.fail("churn replay: epoch " +
                std::to_string(service.epochs().epoch()) + " after " +
                std::to_string(events) + " events");
  }
  // Let the background revalidations the stale hits scheduled land.
  obs::RegistrySnapshot snap = service.metrics_snapshot();
  for (int wait = 0; wait < 200; ++wait) {
    snap = service.metrics_snapshot();
    if (snap.value("aapc_service_background_queue_depth") == 0 &&
        snap.value("aapc_service_revalidations_total") > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (tracer.enabled()) {
    const obs::SeriesSnapshot* reval =
        snap.find("aapc_service_revalidation_seconds");
    result.set("service.revalidation_ms",
               reval != nullptr && reval->histogram.count > 0
                   ? reval->histogram.sum * 1e3 /
                         static_cast<double>(reval->histogram.count)
                   : 0,
               "ms");
  }
  return seconds;
}

// ---- compile_cold ---------------------------------------------------------

double replay_compile(const RunOptions& options, Tracer& tracer,
                      RunResult& result) {
  const std::vector<CompileItem> batch = compile_batch(options.seed);
  service::CompilerPool pool(4, 64);
  const core::TaskRunner runner = [&pool](const std::vector<core::Task>& t) {
    pool.run_tasks(t);
  };
  double sync_messages = 0, ops = 0, stage_spans = 0, stage_service = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const CompileItem& item = batch[k];
    const topology::Topology& topo = item.topo;
    ++result.attempted;
    Tracer::Scope root(tracer, "compile_cold.item", k + 1);
    const Clock::time_point stages = Clock::now();
    core::Schedule schedule;
    if (item.kind == core::CollectiveKind::kAlltoall) {
      core::Decomposition dec;
      {
        Tracer::Scope span(tracer, "core.decompose", k + 1);
        dec = core::decompose(topo);
      }
      Tracer::Scope span(tracer, "core.assign", k + 1);
      schedule = core::assign_messages_hierarchical(dec, core::AssignmentOptions{}, runner);
    } else {
      Tracer::Scope span(tracer, "core.collective_build", k + 1);
      switch (item.kind) {
        case core::CollectiveKind::kAllgather:
          schedule = core::build_allgather_schedule(topo);
          break;
        case core::CollectiveKind::kReduceScatter:
          schedule = core::build_reduce_scatter_schedule(topo);
          break;
        default:
          schedule = core::build_sparse_alltoall_schedule(
              topo, core::normalize_neighbors(topo.machine_count(),
                                              item.neighbors));
      }
    }
    double stage_seconds = seconds_since(stages);
    {
      Tracer::Scope span(tracer, "core.verify", k + 1);
      const std::string bad = verify_compiled(item, schedule);
      if (!bad.empty()) result.fail("compile replay: " + bad);
    }
    const Clock::time_point after_verify = Clock::now();
    sync::SyncPlan plan;
    {
      Tracer::Scope span(tracer, "sync.plan", k + 1);
      plan = sync::build_sync_plan(topo, schedule, {});
    }
    lowering::LoweringOptions lower_options;
    lower_options.precomputed_plan = &plan;
    lowering::LoweringInfo info;
    mpisim::ProgramSet programs;
    {
      Tracer::Scope span(tracer, "lowering.lower", k + 1);
      programs = lowering::lower_schedule(topo, schedule, item.msize,
                                          lower_options, &info);
    }
    stage_seconds += seconds_since(after_verify);
    root.close();
    sync_messages += static_cast<double>(info.sync_messages);
    for (const mpisim::Program& p : programs.programs) {
      ops += static_cast<double>(p.ops.size());
    }

    // The same key through a cold service; its own stage series must
    // agree with the spans above.
    service::ScheduleService cold;
    {
      Tracer::Scope span(tracer, "compile_cold.service", k + 1);
      Tracer::Scope miss(tracer, "service.miss", k + 1);
      cold.compile(topo, item.msize, item.kind, item.neighbors);
    }
    const obs::RegistrySnapshot snap = cold.metrics_snapshot();
    stage_spans += stage_seconds;
    stage_service += snap.total("aapc_service_stage_decompose_seconds") +
                     snap.total("aapc_service_stage_assign_seconds") +
                     snap.total("aapc_service_stage_sync_seconds") +
                     snap.total("aapc_service_stage_lower_seconds");
  }
  const double seconds = seconds_since(start);
  if (!tracer.enabled()) return seconds;
  result.set("sync.messages", sync_messages, "count");
  result.set("lowering.ops", ops, "count");
  const double ratio = stage_service / stage_spans;
  result.set("trace.stage_xcheck_ratio", ratio, "ratio");
  ++result.attempted;
  if (std::abs(ratio - 1) > kStageTolerance) {
    result.fail("service stage series disagree with the stage spans: ratio " +
                std::to_string(ratio));
  }

  // The 4096-rank schedule: decompose once, assign on 1, 2 and 4 pool
  // workers (the calling thread helps in each), verify the last.
  const topology::Topology big = tree_4096();
  core::Decomposition dec;
  Tracer::Scope root(tracer, "compile_cold.schedule_4096", 0);
  {
    Tracer::Scope span(tracer, "core.decompose", 0);
    dec = core::decompose(big);
  }
  core::Schedule schedule;
  for (const std::int32_t workers : {1, 2, 4}) {
    service::CompilerPool assign_pool(workers, 64);
    schedule = core::Schedule{};
    Tracer::Scope span(tracer, "core.assign_w" + std::to_string(workers), 0);
    schedule = core::assign_messages_hierarchical(
        dec, core::AssignmentOptions{}, [&assign_pool](const std::vector<core::Task>& t) {
          assign_pool.run_tasks(t);
        });
  }
  ++result.attempted;
  {
    Tracer::Scope span(tracer, "core.verify", 0);
    const core::VerifyReport report = core::verify_schedule(big, schedule);
    if (!report.ok) result.fail("4096 replay: " + report.summary());
  }
  result.set("core.messages", static_cast<double>(schedule.message_count()),
             "count");
  result.set("core.phases", schedule.phase_count(), "count");
  return seconds;
}

// ---- simulate -------------------------------------------------------------

double replay_simulate(const RunOptions& options, Tracer& tracer,
                       RunResult& result) {
  const std::vector<SimCase> cases = simulate_cases();
  const simnet::NetworkParams net;
  double messages = 0, recomputations = 0, activated = 0, max_rows = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const SimCase& c = cases[k];
    ++result.attempted;
    Tracer::Scope root(tracer, "simulate.case", k + 1);
    mpisim::ExecutionResult run;
    {
      Tracer::Scope span(tracer, "mpisim.run", k + 1);
      mpisim::Executor executor(*c.topo, net, sim_params(true));
      run = executor.run(c.programs);
    }
    if (!run.integrity.ok()) {
      result.fail(c.name + ": " + run.integrity.summary());
    }
    messages += static_cast<double>(run.message_count);
    recomputations += static_cast<double>(run.network_stats.rate_recomputations);
    activated += static_cast<double>(run.network_stats.flows_activated);
    max_rows = std::max(max_rows,
                        static_cast<double>(run.network_stats.max_active_rows));
    // The run's flows alone, re-driven through the fluid network.
    Tracer::Scope span(tracer, "simnet.replay", k + 1);
    simnet::FluidNetwork network(*c.topo, net);
    std::size_t added = 0;
    for (const mpisim::MessageTrace& m : run.trace) {
      if (m.src == m.dst) continue;
      network.add_flow(c.topo->machine_node(m.src), c.topo->machine_node(m.dst),
                       m.bytes, m.start);
      ++added;
    }
    std::vector<simnet::FlowId> completed;
    while (!network.idle()) {
      network.advance_to(network.next_event_time(), completed);
    }
    if (completed.size() != added) {
      result.fail(c.name + ": replay drained " +
                  std::to_string(completed.size()) + " of " +
                  std::to_string(added) + " flows");
    }
  }
  const double seconds = seconds_since(start);
  if (!tracer.enabled()) return seconds;
  result.set("mpisim.messages", messages, "count");
  result.set("simnet.rate_recomputations", recomputations, "count");
  result.set("simnet.flows_activated", activated, "count");
  result.set("simnet.max_active_rows", max_rows, "count");
  return seconds;
}

/// The request's stages must add up to its total: the summed residual
/// (root self time) must stay within kReconcileShare of the summed
/// totals, and at most kReconcileOutliers of the requests may miss
/// kReconcileShare + kReconcileSlack on their own (a preempted request
/// shows up here). Returns the residual share.
double reconcile(const Tracer& tracer, RunResult& result) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  double residual = 0, total = 0;
  std::int64_t requests = 0, bad = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (spans[i].parent >= 0 || name.size() < 8 ||
        name.compare(name.size() - 8, 8, ".request") != 0) {
      continue;
    }
    const double duration = spans[i].end - spans[i].start;
    ++requests;
    residual += self[i];
    total += duration;
    if (self[i] > kReconcileShare * duration + kReconcileSlack) ++bad;
  }
  const double share = total > 0 ? residual / total : 0;
  result.set("trace.reconcile_outliers", static_cast<double>(bad), "count");
  ++result.attempted;
  if (share > kReconcileShare ||
      static_cast<double>(bad) >
          kReconcileOutliers * static_cast<double>(requests)) {
    result.fail("request stages do not add up to the totals: residual " +
                std::to_string(share * 100) + "%, " + std::to_string(bad) +
                " of " + std::to_string(requests) + " requests off");
  }
  return share;
}

}  // namespace

RunResult run_traced(const RunOptions& options) {
  RunResult result;
  NetdProcess netd(options.netd_path, {});

  // The selected workload's replay, untraced, for the overhead.
  using Replay = double (*)(const RunOptions&, Tracer&, RunResult&);
  const Replay hot = [](const RunOptions& o, Tracer& t, RunResult& r) {
    return replay_hot(o, t, r, nullptr);
  };
  const std::map<std::string, Replay> replays = {
      {"serve_hot", hot},
      {"serve_large", replay_large},
      {"serve_churn", replay_churn},
      {"compile_cold", replay_compile},
      {"simulate", replay_simulate}};
  const auto selected = replays.find(options.workload);
  if (selected == replays.end()) {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  Tracer off(false);
  const double untraced = selected->second(options, off, result);

  Tracer tracer(true);
  std::map<std::string, double> traced;
  traced["serve_hot"] = replay_hot(options, tracer, result, &netd);
  traced["serve_large"] = replay_large(options, tracer, result);
  traced["serve_churn"] = replay_churn(options, tracer, result);
  traced["compile_cold"] = replay_compile(options, tracer, result);
  traced["simulate"] = replay_simulate(options, tracer, result);
  netd.stop();

  const auto mean_ms = [&](const char* root, const char* name) {
    return span_totals(tracer, root, name).mean_self_ms();
  };
  const auto sum_s = [&](const char* root, const char* name) {
    return span_totals(tracer, root, name).self_seconds;
  };
  result.set("topology.parse_ms", mean_ms("serve_hot.request", "topology.parse"),
             "ms");
  result.set("service.canonicalize_ms",
             mean_ms("serve_hot.request", "service.canonicalize"), "ms");
  result.set("service.hit_ms", mean_ms("serve_large.request", "service.hit"),
             "ms");
  result.set("service.relabel_schedule_ms",
             mean_ms("serve_large.probe", "service.relabel_schedule"), "ms");
  result.set("mpisim.relabel_programs_ms",
             mean_ms("serve_large.probe", "mpisim.relabel_programs"), "ms");
  result.set("core.schedule_json_ms",
             mean_ms("serve_large.request", "core.schedule_json"), "ms");
  result.set("netd.encode_ms", mean_ms("serve_large.request", "netd.encode"),
             "ms");
  result.set("service.stale_hit_ms",
             mean_ms("serve_churn.request", "service.stale_hit"), "ms");
  result.set("service.miss_ms", mean_ms("compile_cold.service", "service.miss"),
             "ms");
  result.set("core.collective_build_s",
             sum_s("compile_cold.item", "core.collective_build"), "s");
  result.set("sync.plan_s", sum_s("compile_cold.item", "sync.plan"), "s");
  result.set("lowering.lower_s", sum_s("compile_cold.item", "lowering.lower"),
             "s");
  result.set("core.decompose_s",
             sum_s("compile_cold.schedule_4096", "core.decompose"), "s");
  for (const char* w : {"1", "2", "4"}) {
    result.set(std::string("core.assign_w") + w + "_s",
               sum_s("compile_cold.schedule_4096",
                     (std::string("core.assign_w") + w).c_str()),
               "s");
  }
  result.set("core.verify_s", sum_s("compile_cold.schedule_4096", "core.verify"),
             "s");
  const double run_s = sum_s("simulate.case", "mpisim.run");
  const double replay_s = sum_s("simulate.case", "simnet.replay");
  result.set("mpisim.run_s", run_s, "s");
  result.set("simnet.replay_s", replay_s, "s");
  result.set("mpisim.self_s", run_s - replay_s, "s");

  result.set("trace.reconcile_residual_pct", reconcile(tracer, result) * 100,
             "%");
  result.set("trace.overhead_pct",
             (traced[options.workload] - untraced) / untraced * 100, "%");
  result.note("trace.untraced_s", untraced, "s");
  result.note("trace.traced_s", traced[options.workload], "s");
  result.set("trace.spans", static_cast<double>(tracer.spans().size()),
             "count");
  std::ofstream(options.out_dir + "/spans-" + options.workload + "-seed" +
                std::to_string(options.seed) + ".json")
      << tracer.to_chrome_json();
  result.notes["traffic"] =
      "in process; serve_hot's wire replay over loopback TCP to aapc_netd";
  return result;
}

}  // namespace aapc::perf
