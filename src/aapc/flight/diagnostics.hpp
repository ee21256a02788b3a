// Typed diagnostics shared by the executor's stall/abort exceptions and
// flight::analyze()'s verdicts, so a watchdog report and an analyzer
// verdict name the same rank/link/transfer with the same words (one
// formatting path). The to_string() renderings are byte-stable and are
// the exact messages ExecutionStalled / TransferAborted carry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/topology/topology.hpp"

namespace aapc::flight {

/// One incomplete request of a blocked rank (first 8 are listed).
struct PendingRequest {
  bool is_send = false;
  std::int32_t peer = -1;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;
  bool matched = false;
};

/// One non-done rank at the moment the executor declared a deadlock.
struct BlockedRank {
  std::int32_t rank = -1;
  /// Executor state name ("wait", "waitall", "barrier" or "runnable").
  std::string state;
  std::int64_t pc = 0;
  std::int64_t program_size = 0;
  double clock = 0;
  /// Up to 8 incomplete requests, in post order.
  std::vector<PendingRequest> pending;
  /// Full incomplete-request count (>= pending.size()).
  std::int64_t pending_total = 0;
};

/// A matched transfer making no progress (rate 0 with bytes left, or
/// watchdog-expired). `remaining` is bytes undelivered.
struct StuckTransfer {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;
  double remaining = 0;

  friend bool operator==(const StuckTransfer&, const StuckTransfer&) = default;
};

/// Everything the executor knows when no event can unblock any rank.
struct StallDiagnostic {
  std::string program_set;
  std::vector<BlockedRank> blocked;
  /// Sorted by (src, dst, tag) — byte-stable across hash-map orders.
  std::vector<StuckTransfer> stuck;

  /// The ExecutionStalled message (exact legacy format).
  std::string to_string() const;
};

/// A transfer whose watchdog retries were exhausted.
struct AbortDiagnostic {
  StuckTransfer transfer;
  /// Attempts made, the original post included.
  std::int32_t attempts = 0;
  double timeout = 0;

  /// The TransferAborted message (exact legacy format).
  std::string to_string() const;
};

/// "rank S -> rank D tag=T bytes=B" — the one spelling of a transfer,
/// used by stall/abort messages and analyzer verdicts alike.
std::string format_transfer(std::int32_t src, std::int32_t dst,
                            std::int32_t tag, std::int64_t bytes);

/// "pending send to rank P tag=T bytes=B (matched, in flight)".
std::string format_pending(const PendingRequest& request);

/// "link L (a - b)", plus " [bridge link K]" when `bridge_link` >= 0.
std::string format_link(const topology::Topology& topo, topology::LinkId link,
                        std::int32_t bridge_link = -1);

}  // namespace aapc::flight
