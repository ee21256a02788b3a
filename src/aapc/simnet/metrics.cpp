#include "aapc/simnet/metrics.hpp"

namespace aapc::simnet {

void publish_network_stats(obs::Registry& registry, const NetworkStats& stats,
                           SimTime elapsed) {
  const char* events_help =
      "Simulation events processed by the fluid network, by kind";
  registry
      .counter("aapc_simnet_events_total", events_help,
               {{"kind", "activation"}})
      .inc(stats.flows_activated);
  registry
      .counter("aapc_simnet_events_total", events_help,
               {{"kind", "completion"}})
      .inc(stats.completed_flows);
  registry
      .counter("aapc_simnet_events_total", events_help,
               {{"kind", "capacity_change"}})
      .inc(stats.capacity_changes);
  registry
      .counter("aapc_simnet_rate_recomputations_total",
               "Max-min fair progressive-filling passes")
      .inc(stats.rate_recomputations);
  registry
      .counter("aapc_simnet_refilled_flows_total",
               "Flows put through progressive filling, summed over "
               "rate recomputations")
      .inc(stats.refilled_flows);
  registry
      .counter("aapc_simnet_flows_canceled_total",
               "Flows canceled before completion (watchdog reposts)")
      .inc(stats.canceled_flows);
  registry
      .counter("aapc_simnet_pending_heap_pushes_total",
               "Flows registered with a future start time")
      .inc(stats.pending_heap_pushes);
  registry
      .gauge("aapc_simnet_busy_row_seconds",
             "Time integral of the busy capacity-row count "
             "(divide by aapc_simnet_elapsed_seconds for the mean)")
      .add(stats.busy_row_seconds);
  registry
      .gauge("aapc_simnet_elapsed_seconds",
             "Simulated seconds covered by the published stats")
      .add(elapsed);
  registry
      .gauge("aapc_simnet_max_concurrent_flows",
             "Peak simultaneously-active flows")
      .set_max(static_cast<double>(stats.max_concurrent_flows));
  registry
      .gauge("aapc_simnet_max_active_rows",
             "Peak capacity rows simultaneously carrying flows")
      .set_max(static_cast<double>(stats.max_active_rows));
}

}  // namespace aapc::simnet
