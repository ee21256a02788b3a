#include "aapc/core/scheduler.hpp"

#include "aapc/common/error.hpp"

namespace aapc::core {

Schedule build_aapc_schedule(const topology::Topology& topo,
                             const SchedulerOptions& options) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const std::int32_t machines = topo.machine_count();
  if (machines <= 1) {
    return Schedule{};
  }
  if (machines == 2) {
    ScheduleBuilder builder;
    builder.add(0, 0, 1);
    builder.add(0, 1, 0);
    return std::move(builder).build(1);
  }
  return assign_messages_hierarchical(decompose(topo), options.assignment,
                                      options.runner);
}

}  // namespace aapc::core
