#include "aapc/faults/fault_plan.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::faults {

FaultEvent FaultEvent::link_degrade(SimTime when, std::int32_t link,
                                    double fraction) {
  FaultEvent event;
  event.kind = FaultKind::kLinkDegrade;
  event.when = when;
  event.link = link;
  event.factor = fraction;
  return event;
}

FaultEvent FaultEvent::link_down(SimTime when, std::int32_t link) {
  FaultEvent event;
  event.kind = FaultKind::kLinkDown;
  event.when = when;
  event.link = link;
  event.factor = 0.0;
  return event;
}

FaultEvent FaultEvent::link_up(SimTime when, std::int32_t link) {
  FaultEvent event;
  event.kind = FaultKind::kLinkUp;
  event.when = when;
  event.link = link;
  event.factor = 1.0;
  return event;
}

FaultEvent FaultEvent::node_slowdown(SimTime when, Rank rank,
                                     double multiplier) {
  FaultEvent event;
  event.kind = FaultKind::kNodeSlowdown;
  event.when = when;
  event.rank = rank;
  event.factor = multiplier;
  return event;
}

FaultEvent FaultEvent::node_crash(SimTime when, Rank rank) {
  FaultEvent event;
  event.kind = FaultKind::kNodeCrash;
  event.when = when;
  event.rank = rank;
  return event;
}

namespace {

bool is_link_event(FaultKind kind) {
  return kind == FaultKind::kLinkDegrade || kind == FaultKind::kLinkDown ||
         kind == FaultKind::kLinkUp;
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kNodeSlowdown: return "node_slowdown";
    case FaultKind::kNodeCrash: return "node_crash";
  }
  return "?";
}

}  // namespace

SimTime FaultPlan::onset() const {
  SimTime first = 0;
  bool any = false;
  for (const FaultEvent& event : events) {
    if (!any || event.when < first) first = event.when;
    any = true;
  }
  return any ? first : 0;
}

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    AAPC_REQUIRE(event.when >= 0, "fault event " << i << " ("
                                                 << kind_name(event.kind)
                                                 << "): negative time");
    if (is_link_event(event.kind)) {
      AAPC_REQUIRE(event.link >= 0, "fault event " << i << " ("
                                                   << kind_name(event.kind)
                                                   << "): bad link "
                                                   << event.link);
      if (event.kind == FaultKind::kLinkDegrade) {
        AAPC_REQUIRE(event.factor > 0 && event.factor <= 1.0,
                     "fault event " << i
                                    << ": degrade fraction must be in (0, 1]"
                                    << ", got " << event.factor);
      }
    } else {
      AAPC_REQUIRE(event.rank >= 0, "fault event " << i << " ("
                                                   << kind_name(event.kind)
                                                   << "): bad rank "
                                                   << event.rank);
      if (event.kind == FaultKind::kNodeSlowdown) {
        AAPC_REQUIRE(event.factor >= 1.0,
                     "fault event " << i
                                    << ": slowdown multiplier must be >= 1"
                                    << ", got " << event.factor);
      }
    }
  }
}

FaultPlan FaultPlan::sorted() const {
  validate();
  FaultPlan copy = *this;
  std::stable_sort(copy.events.begin(), copy.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.when < b.when;
                   });
  return copy;
}

void CompiledFaults::apply(mpisim::ExecutorParams& params) const {
  params.capacity_events.insert(params.capacity_events.end(),
                                capacity_events.begin(),
                                capacity_events.end());
  params.rank_faults.insert(params.rank_faults.end(), rank_faults.begin(),
                            rank_faults.end());
  params.fault_markers.insert(params.fault_markers.end(), markers.begin(),
                              markers.end());
}

CompiledFaults compile(const FaultPlan& plan,
                       const simnet::NetworkParams& params,
                       std::int32_t link_count,
                       const std::vector<std::int32_t>& link_map) {
  const FaultPlan ordered = plan.sorted();
  const std::vector<double> nominal = params.link_capacities(link_count);
  CompiledFaults out;
  for (const FaultEvent& event : ordered.events) {
    if (is_link_event(event.kind)) {
      std::int32_t link = event.link;
      if (!link_map.empty()) {
        AAPC_REQUIRE(
            event.link < static_cast<std::int32_t>(link_map.size()),
            "fault plan link " << event.link << " outside link map of size "
                               << link_map.size());
        link = link_map[static_cast<std::size_t>(event.link)];
        if (link < 0) continue;  // blocked link: carries no traffic here
      }
      AAPC_REQUIRE(link < link_count,
                   "fault plan link " << link << " outside topology with "
                                      << link_count << " links");
      const double base = nominal[static_cast<std::size_t>(link)];
      const double capacity =
          event.kind == FaultKind::kLinkDown
              ? 0.0
              : (event.kind == FaultKind::kLinkUp ? base
                                                  : base * event.factor);
      out.capacity_events.push_back(
          simnet::LinkCapacityEvent{event.when, link, capacity});
      std::ostringstream label;
      switch (event.kind) {
        case FaultKind::kLinkDown:
          label << "link " << event.link << " down";
          break;
        case FaultKind::kLinkUp:
          label << "link " << event.link << " restored";
          break;
        default:
          label << "link " << event.link << " degraded to "
                << static_cast<std::int64_t>(event.factor * 100 + 0.5)
                << "%";
      }
      out.markers.push_back(mpisim::FaultMarker{event.when, label.str()});
    } else if (event.kind == FaultKind::kNodeSlowdown) {
      out.rank_faults.push_back(mpisim::RankFault{
          event.rank, event.factor, event.when, simnet::kNever});
      std::ostringstream label;
      label << "rank " << event.rank << " slowdown x" << event.factor;
      out.markers.push_back(mpisim::FaultMarker{event.when, label.str()});
    } else {  // kNodeCrash
      out.rank_faults.push_back(
          mpisim::RankFault{event.rank, 1.0, 0, event.when});
      std::ostringstream label;
      label << "rank " << event.rank << " crash";
      out.markers.push_back(mpisim::FaultMarker{event.when, label.str()});
    }
  }
  return out;
}

std::vector<double> link_factors_at(const FaultPlan& plan, SimTime t,
                                    std::int32_t link_count) {
  const FaultPlan ordered = plan.sorted();
  std::vector<double> factors(static_cast<std::size_t>(link_count), 1.0);
  for (const FaultEvent& event : ordered.events) {
    if (!is_link_event(event.kind) || event.when > t) continue;
    AAPC_REQUIRE(event.link < link_count,
                 "fault plan link " << event.link << " outside plan space of "
                                    << link_count << " links");
    factors[static_cast<std::size_t>(event.link)] =
        event.kind == FaultKind::kLinkDown
            ? 0.0
            : (event.kind == FaultKind::kLinkUp ? 1.0 : event.factor);
  }
  return factors;
}

std::vector<Rank> ranks_crashed_at(const FaultPlan& plan, SimTime t) {
  std::vector<Rank> crashed;
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::kNodeCrash && event.when <= t) {
      crashed.push_back(event.rank);
    }
  }
  std::sort(crashed.begin(), crashed.end());
  crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
  return crashed;
}

FaultSummary summarize(const FaultPlan& plan, std::int32_t link_count) {
  FaultSummary summary;
  const std::vector<double> factors =
      link_factors_at(plan, simnet::kNever, link_count);
  for (std::int32_t l = 0; l < link_count; ++l) {
    const double factor = factors[static_cast<std::size_t>(l)];
    if (factor == 0.0) {
      summary.down_links.push_back(l);
    } else if (factor < 1.0) {
      summary.degraded_links.push_back(l);
    }
  }
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::kNodeSlowdown && event.factor > 1.0) {
      summary.straggler_ranks.push_back(event.rank);
    }
  }
  std::sort(summary.straggler_ranks.begin(), summary.straggler_ranks.end());
  summary.straggler_ranks.erase(
      std::unique(summary.straggler_ranks.begin(),
                  summary.straggler_ranks.end()),
      summary.straggler_ranks.end());
  summary.crashed_ranks = ranks_crashed_at(plan, simnet::kNever);
  return summary;
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  plan.validate();
  std::ostringstream os;
  os << "{\"events\":[";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& event = plan.events[i];
    if (i > 0) os << ',';
    os << "{\"kind\":\"" << kind_name(event.kind) << "\",\"time_ms\":"
       << format_double_roundtrip(to_milliseconds(event.when));
    if (is_link_event(event.kind)) {
      os << ",\"link\":" << event.link;
      if (event.kind == FaultKind::kLinkDegrade) {
        os << ",\"factor\":" << format_double_roundtrip(event.factor);
      }
    } else {
      os << ",\"rank\":" << event.rank;
      if (event.kind == FaultKind::kNodeSlowdown) {
        os << ",\"factor\":" << format_double_roundtrip(event.factor);
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

FaultPlan fault_plan_from_json(std::string_view json) {
  // "link" and "rank" are 32-bit integers; validate() checks their signs.
  constexpr std::int64_t kIdMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kIdMax = std::numeric_limits<std::int32_t>::max();
  json::Reader reader(json, "fault plan JSON");
  FaultPlan plan;
  reader.expect('{');
  bool saw_events = false;
  do {
    const std::string field = reader.key();
    AAPC_REQUIRE(field == "events",
                 "fault plan JSON: unknown field '" << field << "'");
    saw_events = true;
    reader.expect('[');
    if (!reader.consume(']')) {
      do {
        reader.expect('{');
        std::string kind;
        bool saw_time = false;
        FaultEvent event;
        do {
          const std::string name = reader.key();
          if (name == "kind") {
            kind = reader.string();
          } else if (name == "time_ms") {
            event.when = milliseconds(reader.number());
            saw_time = true;
          } else if (name == "link") {
            event.link =
                static_cast<std::int32_t>(reader.integer(kIdMin, kIdMax));
          } else if (name == "rank") {
            event.rank = static_cast<Rank>(reader.integer(kIdMin, kIdMax));
          } else if (name == "factor") {
            event.factor = reader.number();
          } else {
            throw InvalidArgument("fault plan JSON: unknown field '" + name +
                                  "'");
          }
        } while (reader.consume(','));
        reader.expect('}');
        AAPC_REQUIRE(saw_time, "fault plan JSON: event missing 'time_ms'");
        if (kind == "link_degrade") {
          event.kind = FaultKind::kLinkDegrade;
        } else if (kind == "link_down") {
          event.kind = FaultKind::kLinkDown;
          event.factor = 0.0;
        } else if (kind == "link_up") {
          event.kind = FaultKind::kLinkUp;
          event.factor = 1.0;
        } else if (kind == "node_slowdown") {
          event.kind = FaultKind::kNodeSlowdown;
        } else if (kind == "node_crash") {
          event.kind = FaultKind::kNodeCrash;
          event.factor = 1.0;
        } else {
          throw InvalidArgument("fault plan JSON: unknown kind '" + kind +
                                "'");
        }
        plan.events.push_back(event);
      } while (reader.consume(','));
      reader.expect(']');
    }
  } while (reader.consume(','));
  reader.expect('}');
  reader.finish();
  AAPC_REQUIRE(saw_events, "fault plan JSON: missing 'events'");
  plan.validate();
  return plan;
}

}  // namespace aapc::faults
