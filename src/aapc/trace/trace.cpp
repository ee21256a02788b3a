#include "aapc/trace/trace.hpp"

#include <algorithm>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"

namespace aapc::trace {

std::string to_csv(const std::vector<mpisim::MessageTrace>& trace) {
  std::ostringstream os;
  os << "src,dst,bytes,tag,kind,start_us,end_us,delivered_us\n";
  for (const mpisim::MessageTrace& m : trace) {
    os << m.src << ',' << m.dst << ',' << m.bytes << ',' << m.tag << ','
       << (m.is_sync ? "sync" : "data") << ','
       << format_double(to_microseconds(m.start), 3) << ','
       << format_double(to_microseconds(m.end), 3) << ','
       << format_double(to_microseconds(m.delivered), 3) << '\n';
  }
  return os.str();
}

namespace {

void append_transfer_events(
    std::ostringstream& os, const std::vector<mpisim::MessageTrace>& trace,
    bool& first) {
  for (const mpisim::MessageTrace& m : trace) {
    if (!first) os << ',';
    first = false;
    if (m.is_sync) {
      // Instant event on the sender's track at token departure.
      os << "{\"name\":\"sync->" << m.dst << "\",\"ph\":\"i\",\"s\":\"t\","
         << "\"pid\":0,\"tid\":" << m.src
         << ",\"ts\":" << format_double(to_microseconds(m.start), 3) << '}';
    } else {
      os << "{\"name\":\"" << m.src << "->" << m.dst
         << "\",\"cat\":\"data\",\"ph\":\"X\",\"pid\":0,\"tid\":" << m.src
         << ",\"ts\":" << format_double(to_microseconds(m.start), 3)
         << ",\"dur\":"
         << format_double(to_microseconds(m.end - m.start), 3)
         << ",\"args\":{\"bytes\":" << m.bytes << ",\"dst\":" << m.dst;
      if (m.retries > 0) {
        os << ",\"retries\":" << m.retries;
      }
      os << "}}";
    }
  }
}

}  // namespace

std::string to_chrome_json(const std::vector<mpisim::MessageTrace>& trace) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  append_transfer_events(os, trace, first);
  os << "]}";
  return os.str();
}

std::string to_chrome_json(const std::vector<mpisim::MessageTrace>& trace,
                           const std::vector<mpisim::FaultMarker>& markers) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  append_transfer_events(os, trace, first);
  // Faults as process-global instant events on a dedicated track.
  for (const mpisim::FaultMarker& marker : markers) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << json::quote(marker.label)
       << ",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,"
       << "\"tid\":\"faults\",\"ts\":"
       << format_double(to_microseconds(marker.time), 3) << '}';
  }
  os << "]}";
  return os.str();
}

std::string ascii_gantt(const std::vector<mpisim::MessageTrace>& trace,
                        std::int32_t rank_count,
                        const GanttOptions& options) {
  AAPC_REQUIRE(options.width >= 10, "gantt width too small");
  SimTime horizon = 0;
  for (const mpisim::MessageTrace& m : trace) {
    horizon = std::max(horizon, m.end);
  }
  if (horizon <= 0) return "(empty trace)\n";

  std::ostringstream os;
  os << "time 0 .. " << format_double(to_milliseconds(horizon), 2)
     << " ms, one row per sending rank ('#' transfer, digit = overlap)\n";
  const double scale = static_cast<double>(options.width) / horizon;
  for (mpisim::Rank r = 0; r < rank_count; ++r) {
    std::vector<std::int32_t> cells(static_cast<std::size_t>(options.width),
                                    0);
    for (const mpisim::MessageTrace& m : trace) {
      if (m.src != r) continue;
      if (options.data_only && m.is_sync) continue;
      auto begin = static_cast<std::int32_t>(m.start * scale);
      auto end = static_cast<std::int32_t>(m.end * scale);
      begin = std::clamp(begin, 0, options.width - 1);
      end = std::clamp(end, begin, options.width - 1);
      for (std::int32_t c = begin; c <= end; ++c) {
        cells[static_cast<std::size_t>(c)] += 1;
      }
    }
    os << (r < 10 ? " " : "") << r << " |";
    for (const std::int32_t depth : cells) {
      if (depth == 0) {
        os << '.';
      } else if (depth == 1) {
        os << '#';
      } else {
        os << std::min(depth, 9);
      }
    }
    os << "|\n";
  }
  return os.str();
}

std::string link_utilization_report(
    const topology::Topology& topo, const simnet::NetworkStats& stats,
    double effective_bandwidth_bytes_per_sec, SimTime completion) {
  AAPC_REQUIRE(stats.edge_bytes.size() ==
                   static_cast<std::size_t>(topo.directed_edge_count()),
               "stats do not match the topology");
  TextTable table;
  table.set_header({"edge", "bytes", "utilization"});
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    const double bytes = stats.edge_bytes[static_cast<std::size_t>(e)];
    const double utilization =
        completion > 0
            ? bytes / (effective_bandwidth_bytes_per_sec * completion)
            : 0.0;
    table.add_row({topo.name(topo.edge_source(e)) + "->" +
                       topo.name(topo.edge_target(e)),
                   format_double(bytes, 0),
                   format_double(100.0 * utilization, 1) + "%"});
  }
  return table.render();
}

std::int32_t max_overlapping_contending_transfers(
    const topology::Topology& topo,
    const std::vector<mpisim::MessageTrace>& trace) {
  // Collect data transfers with their tree paths.
  struct Entry {
    SimTime start;
    SimTime end;
    std::vector<topology::EdgeId> path;
  };
  std::vector<Entry> entries;
  for (const mpisim::MessageTrace& m : trace) {
    if (m.is_sync) continue;
    entries.push_back(Entry{
        m.start, m.end,
        topo.path(topo.machine_node(m.src), topo.machine_node(m.dst))});
  }
  // Per directed edge, the maximum number of simultaneously-open
  // transfer intervals crossing it (sweep over interval endpoints;
  // half-open [start, end) so back-to-back serialization counts as 1).
  std::int32_t worst = 0;
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    std::vector<std::pair<SimTime, std::int32_t>> events;
    for (const Entry& entry : entries) {
      if (std::find(entry.path.begin(), entry.path.end(), e) ==
          entry.path.end()) {
        continue;
      }
      events.emplace_back(entry.start, +1);
      events.emplace_back(entry.end, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& lhs, const auto& rhs) {
                if (lhs.first != rhs.first) return lhs.first < rhs.first;
                return lhs.second < rhs.second;  // close before open
              });
    std::int32_t depth = 0;
    for (const auto& [time, delta] : events) {
      depth += delta;
      worst = std::max(worst, depth);
    }
  }
  return worst;
}

}  // namespace aapc::trace
