#include "aapc/flight/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/sync/sync_plan.hpp"

namespace aapc::flight {

namespace {

/// A rank is a straggler when its normalized post-cost factor reaches
/// this (1.3 = 30% above the fleet).
constexpr double kStragglerThreshold = 1.3;
/// A link is degraded when its normalized min excess reaches this.
constexpr double kLinkExcessThreshold = 1.25;
/// Post-cost estimates prefer the last kRecentWindow posts so a
/// late-onset straggler is still caught from an overwritten ring.
constexpr std::size_t kRecentWindow = 16;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  return values[index];
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

std::uint64_t transfer_key(std::int32_t src, std::int32_t dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Per-(src, dst) send bookkeeping for stuck-transfer detection. Only
/// sender-side events count: receives are preposted en masse by the
/// lowering, so an unmatched recv is cascade, not evidence.
struct SendProgress {
  std::int64_t posts = 0;
  std::int64_t completions = 0;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;
};

}  // namespace

const char* verdict_kind_name(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kStragglerRank: return "straggler_rank";
    case VerdictKind::kDegradedLink: return "degraded_link";
    case VerdictKind::kDownLink: return "down_link";
    case VerdictKind::kLossyTransport: return "lossy_transport";
  }
  return "?";
}

AnalysisReport analyze(const FlightDump& dump,
                       const topology::Topology& topo,
                       const core::Schedule* schedule,
                       const sync::SyncPlan* plan,
                       const stp::SpanningTree* tree) {
  const std::int32_t ranks = dump.meta.rank_count;
  AAPC_REQUIRE(ranks == topo.machine_count(),
               "flight dump has " << ranks << " ranks but the topology has "
                                  << topo.machine_count() << " machines");
  AAPC_REQUIRE(dump.ranks.size() == static_cast<std::size_t>(ranks),
               "flight dump rank logs do not match its header");

  AnalysisReport report;
  report.rank_post_factor.assign(static_cast<std::size_t>(ranks), 0.0);

  // ---- per-rank CPU post-cost factors (straggler signal) ------------
  // Post costs are exactly overhead x cpu_factor, so dividing by the
  // configured overhead recovers the factor per event. The recent
  // window catches late-onset stragglers even when earlier healthy
  // posts dominate (or were overwritten).
  std::vector<std::vector<double>> factors(static_cast<std::size_t>(ranks));
  // ---- transfer drain excess (link-health signal) -------------------
  struct LinkAccum {
    std::int64_t transfers = 0;
    double min_excess = 0;
    double sum_excess = 0;
    /// All excesses, for the lossy-run quartile (stochastic loss spares
    /// the occasional transfer, so the strict minimum under-reports).
    std::vector<double> excesses;
    std::int64_t stuck = 0;
  };
  std::unordered_map<topology::LinkId, LinkAccum> link_accum;
  std::vector<double> all_excess;
  std::unordered_map<std::uint64_t, SendProgress> sends;
  std::vector<topology::EdgeId> path;

  for (std::int32_t r = 0; r < ranks; ++r) {
    const RankLog& log = dump.ranks[static_cast<std::size_t>(r)];
    report.events_analyzed += static_cast<std::int64_t>(log.events.size());
    report.events_dropped += static_cast<std::int64_t>(log.dropped);
    for (const Event& e : log.events) {
      switch (e.kind) {
        case EventKind::kSendPost:
          if (dump.meta.run.send_overhead > 0) {
            factors[static_cast<std::size_t>(r)].push_back(
                (e.time - e.aux) / dump.meta.run.send_overhead);
          }
          if (e.tag < dump.meta.sync_tag_base) {
            SendProgress& p = sends[transfer_key(r, e.peer)];
            ++p.posts;
            p.tag = e.tag;
            p.bytes = e.bytes;
          }
          break;
        case EventKind::kRecvPost:
          if (dump.meta.run.recv_overhead > 0) {
            factors[static_cast<std::size_t>(r)].push_back(
                (e.time - e.aux) / dump.meta.run.recv_overhead);
          }
          break;
        case EventKind::kSendComplete: {
          if (e.tag >= dump.meta.sync_tag_base) break;
          ++sends[transfer_key(r, e.peer)].completions;
          ++report.transfers_observed;
          if (dump.meta.run.effective_bandwidth <= 0 || e.bytes <= 0) break;
          const double expected = static_cast<double>(e.bytes) /
                                  dump.meta.run.effective_bandwidth;
          if (expected <= 0) break;
          const double excess = (e.time - e.aux) / expected;
          all_excess.push_back(excess);
          if (e.peer < 0 || e.peer >= ranks) break;
          topo.path_into(topo.machine_node(r), topo.machine_node(e.peer),
                         path);
          for (const topology::EdgeId edge : path) {
            LinkAccum& acc = link_accum[topo.edge_link(edge)];
            acc.min_excess = acc.transfers == 0
                                 ? excess
                                 : std::min(acc.min_excess, excess);
            acc.sum_excess += excess;
            acc.excesses.push_back(excess);
            ++acc.transfers;
          }
          break;
        }
        case EventKind::kWatchdogRetry:
          ++report.watchdog_retries;
          break;
        case EventKind::kRecvComplete:
        case EventKind::kSyncWait:
        case EventKind::kSyncRelease:
          break;
      }
    }
  }

  // Straggler factors: prefer the recent window so the estimate tracks
  // the rank's current behavior, but never below the all-time median
  // (a straggler slow from the start should not be diluted).
  std::vector<double> nonzero;
  for (std::int32_t r = 0; r < ranks; ++r) {
    const std::vector<double>& f = factors[static_cast<std::size_t>(r)];
    if (f.empty()) continue;
    const std::vector<double> recent(
        f.end() -
            static_cast<std::ptrdiff_t>(std::min(kRecentWindow, f.size())),
        f.end());
    const double estimate = std::max(median(f), median(recent));
    report.rank_post_factor[static_cast<std::size_t>(r)] = estimate;
    nonzero.push_back(estimate);
  }
  const double fleet_factor = median(nonzero);

  // Stuck transfers: sender posted (possibly retried) but never drained.
  for (const auto& [key, progress] : sends) {
    if (progress.completions >= progress.posts) continue;
    report.stuck.push_back(StuckTransfer{
        static_cast<std::int32_t>(key >> 32),
        static_cast<std::int32_t>(static_cast<std::uint32_t>(key)),
        progress.tag, progress.bytes, static_cast<double>(progress.bytes)});
  }
  std::sort(report.stuck.begin(), report.stuck.end(),
            [](const StuckTransfer& a, const StuckTransfer& b) {
              return std::tie(a.src, a.dst, a.tag) <
                     std::tie(b.src, b.dst, b.tag);
            });

  // ---- verdicts -----------------------------------------------------
  auto bridge_link_of = [&](topology::LinkId link) {
    return tree != nullptr ? tree->bridge_link_of(link) : -1;
  };

  // Down links: on the path of every stuck transfer. Falls back to the
  // most-crossed link when the stuck set has no common link (multiple
  // independent failures).
  if (!report.stuck.empty()) {
    std::unordered_map<topology::LinkId, std::int64_t> crossed;
    for (const StuckTransfer& t : report.stuck) {
      if (t.src < 0 || t.src >= ranks || t.dst < 0 || t.dst >= ranks) {
        continue;
      }
      topo.path_into(topo.machine_node(t.src), topo.machine_node(t.dst),
                     path);
      std::unordered_set<topology::LinkId> seen;
      for (const topology::EdgeId edge : path) {
        if (seen.insert(topo.edge_link(edge)).second) {
          ++crossed[topo.edge_link(edge)];
        }
      }
    }
    const auto stuck_count = static_cast<std::int64_t>(report.stuck.size());
    std::vector<topology::LinkId> candidates;
    std::int64_t best_crossed = 0;
    for (const auto& [link, count] : crossed) {
      best_crossed = std::max(best_crossed, count);
      if (count == stuck_count) candidates.push_back(link);
      link_accum[link].stuck = count;
    }
    if (candidates.empty()) {
      for (const auto& [link, count] : crossed) {
        if (count == best_crossed) candidates.push_back(link);
      }
    }
    // Prefer switch-to-switch links: a down access link would imply
    // every stuck transfer shares one machine, which the intersection
    // already encodes — ties go to the trunk side.
    auto is_access = [&](topology::LinkId link) {
      const auto [a, b] = topo.link_endpoints(link);
      return topo.is_machine(a) || topo.is_machine(b);
    };
    std::sort(candidates.begin(), candidates.end(),
              [&](topology::LinkId a, topology::LinkId b) {
                return std::make_tuple(is_access(a), a) <
                       std::make_tuple(is_access(b), b);
              });
    for (const topology::LinkId link : candidates) {
      Verdict v;
      v.kind = VerdictKind::kDownLink;
      v.link = link;
      v.bridge_link = bridge_link_of(link);
      v.severity = static_cast<double>(crossed[link]);
      v.score = 1000.0 + static_cast<double>(crossed[link]);
      std::ostringstream os;
      os << format_link(topo, link, v.bridge_link) << ": on the path of "
         << crossed[link] << "/" << stuck_count
         << " stuck transfer(s), e.g. "
         << format_transfer(report.stuck.front().src,
                            report.stuck.front().dst,
                            report.stuck.front().tag,
                            report.stuck.front().bytes);
      if (report.watchdog_retries > 0) {
        os << "; " << report.watchdog_retries << " watchdog retries";
      }
      v.detail = os.str();
      report.verdicts.push_back(std::move(v));
    }
  }

  // Stragglers: normalized against the fleet median (the healthy
  // majority), so no absolute calibration is needed.
  if (fleet_factor > 0) {
    for (std::int32_t r = 0; r < ranks; ++r) {
      const double factor =
          report.rank_post_factor[static_cast<std::size_t>(r)];
      const double normalized = factor / fleet_factor;
      if (factor <= 0 || normalized < kStragglerThreshold) continue;
      Verdict v;
      v.kind = VerdictKind::kStragglerRank;
      v.rank = r;
      v.severity = factor;
      v.score = normalized - 1.0;
      std::ostringstream os;
      os << "rank " << r << ": post cost " << factor
         << "x nominal (fleet median " << fleet_factor << "x) over "
         << factors[static_cast<std::size_t>(r)].size() << " posts";
      v.detail = os.str();
      report.verdicts.push_back(std::move(v));
    }
  }

  // Degraded / lossy links: a link is suspect only when even its
  // *fastest* transfer drained slow — contention slows some transfers
  // on a healthy link, a capacity loss slows them all.
  const double baseline_excess = percentile(all_excess, 0.25);
  const bool lossy_run =
      dump.meta.run.backend == 1 && dump.meta.run.retransmissions > 0;
  if (baseline_excess > 0) {
    for (const auto& [link, acc] : link_accum) {
      if (acc.transfers == 0) continue;
      // Deterministic capacity loss slows every transfer, so the strict
      // minimum is the cleanest signal. Stochastic loss occasionally
      // lets a transfer through unscathed — one lucky drain must not
      // exonerate a link that retransmitted everything else — so lossy
      // runs judge the link's lower-quartile excess instead.
      const double link_signal = lossy_run ? percentile(acc.excesses, 0.25)
                                           : acc.min_excess;
      const double normalized = link_signal / baseline_excess;
      if (normalized < kLinkExcessThreshold) continue;
      if (std::any_of(report.verdicts.begin(), report.verdicts.end(),
                      [&](const Verdict& v) {
                        return v.kind == VerdictKind::kDownLink &&
                               v.link == link;
                      })) {
        continue;
      }
      Verdict v;
      v.kind = lossy_run ? VerdictKind::kLossyTransport
                         : VerdictKind::kDegradedLink;
      v.link = link;
      v.bridge_link = bridge_link_of(link);
      v.severity = link_signal;
      v.score = normalized - 1.0;
      std::ostringstream os;
      os << format_link(topo, link, v.bridge_link) << ": "
         << acc.transfers << " transfer(s), "
         << (lossy_run ? "p25" : "min") << " drain excess " << link_signal
         << "x vs fleet baseline " << baseline_excess << "x";
      if (lossy_run) {
        os << "; " << dump.meta.run.retransmissions
           << " retransmissions on the packet backend";
      }
      v.detail = os.str();
      report.verdicts.push_back(std::move(v));
    }
  }

  std::stable_sort(report.verdicts.begin(), report.verdicts.end(),
                   [](const Verdict& a, const Verdict& b) {
                     return a.score > b.score;
                   });

  // Per-link usage table, sorted by link id.
  report.links.reserve(link_accum.size());
  for (const auto& [link, acc] : link_accum) {
    LinkUsage usage;
    usage.link = link;
    usage.transfers = acc.transfers;
    usage.min_excess = acc.min_excess;
    usage.mean_excess =
        acc.transfers > 0
            ? acc.sum_excess / static_cast<double>(acc.transfers)
            : 0;
    usage.stuck = acc.stuck;
    report.links.push_back(usage);
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkUsage& a, const LinkUsage& b) {
              return a.link < b.link;
            });

  // ---- dependence-graph reconstruction ------------------------------
  if (schedule != nullptr && plan != nullptr &&
      schedule->message_count() > 0) {
    const auto n = static_cast<std::size_t>(schedule->message_count());
    // (src, dst) -> the scheduled message a transfer carries.
    std::unordered_map<std::uint64_t, std::int32_t> message_of;
    message_of.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const core::Message& m = schedule->messages[i];
      message_of[transfer_key(m.src, m.dst)] =
          static_cast<std::int32_t>(i);
    }
    constexpr double kUnobserved = -1.0;
    std::vector<double> activation(n, kUnobserved);
    std::vector<double> completion(n, kUnobserved);
    for (std::int32_t r = 0; r < ranks; ++r) {
      for (const Event& e : dump.ranks[static_cast<std::size_t>(r)].events) {
        if (e.kind != EventKind::kSendComplete ||
            e.tag >= dump.meta.sync_tag_base) {
          continue;
        }
        const auto it = message_of.find(transfer_key(r, e.peer));
        if (it == message_of.end()) continue;
        const auto id = static_cast<std::size_t>(it->second);
        activation[id] = e.aux;
        completion[id] = e.time;
      }
    }
    const sync::PlanAdjacency adjacency =
        sync::build_adjacency(*plan, schedule->message_count());
    report.rank_slack.assign(static_cast<std::size_t>(ranks), 0.0);
    std::int32_t end = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (completion[i] == kUnobserved) continue;
      if (end < 0 || completion[i] > completion[static_cast<std::size_t>(end)]) {
        end = static_cast<std::int32_t>(i);
      }
      double ready = kUnobserved;
      for (const std::int32_t edge : adjacency.in(i)) {
        const std::int32_t pred =
            plan->edges[static_cast<std::size_t>(edge)].from;
        ready = std::max(ready, completion[static_cast<std::size_t>(pred)]);
      }
      if (ready == kUnobserved) continue;
      const double slack = std::max(0.0, activation[i] - ready);
      report.total_slack += slack;
      const core::Rank sender = schedule->messages[i].src;
      if (sender >= 0 && sender < ranks) {
        report.rank_slack[static_cast<std::size_t>(sender)] += slack;
      }
    }
    // Critical path: walk back from the last completion through the
    // latest-finishing observed predecessor.
    std::int32_t cursor = end;
    while (cursor >= 0) {
      report.critical_path.push_back(cursor);
      std::int32_t next = -1;
      for (const std::int32_t edge :
           adjacency.in(static_cast<std::size_t>(cursor))) {
        const std::int32_t pred =
            plan->edges[static_cast<std::size_t>(edge)].from;
        if (completion[static_cast<std::size_t>(pred)] == kUnobserved) {
          continue;
        }
        if (next < 0 || completion[static_cast<std::size_t>(pred)] >
                            completion[static_cast<std::size_t>(next)]) {
          next = pred;
        }
      }
      cursor = next;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
    if (!report.critical_path.empty()) {
      const auto first =
          static_cast<std::size_t>(report.critical_path.front());
      const auto last =
          static_cast<std::size_t>(report.critical_path.back());
      if (activation[first] != kUnobserved) {
        report.critical_path_span = completion[last] - activation[first];
      }
    }
  }

  return report;
}

std::string AnalysisReport::summary() const {
  std::ostringstream os;
  if (verdicts.empty()) {
    os << "no verdict: run looks healthy (" << transfers_observed
       << " transfers, " << events_analyzed << " events)\n";
    return os.str();
  }
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    os << (i + 1) << ". " << verdict_kind_name(v.kind) << ": " << v.detail
       << " [score " << v.score << "]\n";
  }
  return os.str();
}

std::string AnalysisReport::to_json() const {
  std::ostringstream os;
  os << "{\"verdicts\":[";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    if (i > 0) os << ",";
    os << "{\"kind\":\"" << verdict_kind_name(v.kind) << "\""
       << ",\"rank\":" << v.rank << ",\"link\":" << v.link
       << ",\"bridge_link\":" << v.bridge_link
       << ",\"severity\":" << v.severity << ",\"score\":" << v.score
       << ",\"detail\":" << json::quote(v.detail) << "}";
  }
  os << "],\"rank_post_factor\":[";
  for (std::size_t i = 0; i < rank_post_factor.size(); ++i) {
    if (i > 0) os << ",";
    os << rank_post_factor[i];
  }
  os << "],\"links\":[";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkUsage& u = links[i];
    if (i > 0) os << ",";
    os << "{\"link\":" << u.link << ",\"transfers\":" << u.transfers
       << ",\"min_excess\":" << u.min_excess
       << ",\"mean_excess\":" << u.mean_excess << ",\"stuck\":" << u.stuck
       << "}";
  }
  os << "],\"stuck\":[";
  for (std::size_t i = 0; i < stuck.size(); ++i) {
    const StuckTransfer& t = stuck[i];
    if (i > 0) os << ",";
    os << "{\"src\":" << t.src << ",\"dst\":" << t.dst
       << ",\"tag\":" << t.tag << ",\"bytes\":" << t.bytes << "}";
  }
  os << "],\"transfers_observed\":" << transfers_observed
     << ",\"events_analyzed\":" << events_analyzed
     << ",\"events_dropped\":" << events_dropped
     << ",\"watchdog_retries\":" << watchdog_retries
     << ",\"critical_path\":[";
  for (std::size_t i = 0; i < critical_path.size(); ++i) {
    if (i > 0) os << ",";
    os << critical_path[i];
  }
  os << "],\"critical_path_span\":" << critical_path_span
     << ",\"total_slack\":" << total_slack << "}";
  return os.str();
}

}  // namespace aapc::flight
