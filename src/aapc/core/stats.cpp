#include "aapc/core/stats.hpp"

#include <algorithm>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::core {

std::string ScheduleStats::to_string() const {
  std::ostringstream os;
  os << "phases: " << phase_count << ", messages: " << message_count
     << "\nmessages/phase: avg " << format_double(avg_messages_per_phase, 2)
     << ", min " << min_messages_per_phase << ", max "
     << max_messages_per_phase
     << "\noccupancy: send " << format_double(100 * send_occupancy, 1)
     << "%, receive " << format_double(100 * receive_occupancy, 1) << "%"
     << "\nbottleneck-link phase utilization: "
     << format_double(100 * bottleneck_phase_utilization, 1) << "%\n";
  return os.str();
}

ScheduleStats compute_schedule_stats(const topology::Topology& topo,
                                     const Schedule& schedule) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  ScheduleStats stats;
  stats.phase_count = schedule.phase_count();
  if (stats.phase_count == 0) return stats;

  const topology::LinkId bottleneck =
      topo.machine_count() >= 2 ? topo.bottleneck_link() : -1;
  const auto [ba, bb] =
      bottleneck >= 0 ? topo.link_endpoints(bottleneck)
                      : std::pair<topology::NodeId, topology::NodeId>{-1, -1};

  std::int64_t sends = 0;
  std::int64_t receives = 0;
  std::int64_t bottleneck_busy_directions = 0;
  stats.min_messages_per_phase =
      static_cast<std::int32_t>(schedule.phase_size(0));
  std::vector<topology::EdgeId> path;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    const auto count = static_cast<std::int32_t>(schedule.phase_size(p));
    stats.message_count += count;
    stats.min_messages_per_phase =
        std::min(stats.min_messages_per_phase, count);
    stats.max_messages_per_phase =
        std::max(stats.max_messages_per_phase, count);
    bool forward = false;
    bool backward = false;
    for (const Message& m : schedule.phase(p)) {
      ++sends;
      ++receives;
      if (bottleneck >= 0) {
        topo.path_into(topo.machine_node(m.src), topo.machine_node(m.dst),
                       path);
        for (const topology::EdgeId e : path) {
          if (topo.edge_link(e) == bottleneck) {
            (topo.edge_source(e) == ba ? forward : backward) = true;
          }
        }
      }
    }
    bottleneck_busy_directions += (forward ? 1 : 0) + (backward ? 1 : 0);
  }
  stats.avg_messages_per_phase =
      static_cast<double>(stats.message_count) / stats.phase_count;
  const double slots =
      static_cast<double>(topo.machine_count()) * stats.phase_count;
  stats.send_occupancy = static_cast<double>(sends) / slots;
  stats.receive_occupancy = static_cast<double>(receives) / slots;
  stats.bottleneck_phase_utilization =
      bottleneck >= 0 ? static_cast<double>(bottleneck_busy_directions) /
                            (2.0 * stats.phase_count)
                      : 0.0;
  return stats;
}

}  // namespace aapc::core
