// Loss-sweep experiment: the generated, pair-wise-synchronized
// alltoall executed end-to-end over the segment-level packet model
// (mpisim::PacketBackend) while the stochastic loss rate rises — the
// repo's answer to "does the paper's schedule survive a real, lossy
// Ethernet?".
//
// For each (transport, loss rate) cell the schedule is run over the
// packet backend with per-link Bernoulli loss at that rate; the cell
// records the completion time, its inflation over the same transport's
// zero-loss run, the packet-level loss/retransmission counters, and the
// end-to-end integrity verdict (every block delivered exactly once —
// mpisim::DeliveryLedger). The interesting comparison is kFixedWindow
// (whose window stalls behind a lost segment until the 40 ms RTO,
// collapsing under even modest loss) against kSelectiveRepeat (whose
// per-segment SACK window degrades gracefully).
#pragma once

#include <string>
#include <vector>

#include "aapc/common/table.hpp"
#include "aapc/common/units.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::harness {

struct LossSweepConfig {
  /// Bernoulli per-link segment-loss rates to sweep.
  std::vector<double> loss_rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
  /// Transports to sweep (the RTO-collapse vs SACK comparison).
  std::vector<packetsim::PacketNetworkParams::Transport> transports = {
      packetsim::PacketNetworkParams::Transport::kFixedWindow,
      packetsim::PacketNetworkParams::Transport::kSelectiveRepeat,
  };
  Bytes msize = 32_KiB;
  /// Base packet-model parameters; transport and faults.loss_rate are
  /// overwritten per cell.
  packetsim::PacketNetworkParams packet;
  simnet::NetworkParams net;
  mpisim::ExecutorParams exec;  // `packet` replaced per cell
  lowering::LoweringOptions lowering;
};

/// One (transport, loss rate) run.
struct LossSweepCell {
  packetsim::PacketNetworkParams::Transport transport =
      packetsim::PacketNetworkParams::Transport::kFixedWindow;
  double loss_rate = 0;
  SimTime completion = 0;
  /// completion / (same transport at loss 0).
  double inflation = 1.0;
  std::int64_t segments_sent = 0;
  std::int64_t segments_lost = 0;
  std::int64_t segments_dropped = 0;
  std::int64_t retransmissions = 0;
  bool integrity_ok = false;
  std::string integrity_summary;
};

struct LossSweepReport {
  std::string title;
  Bytes msize = 0;
  std::int64_t messages_per_run = 0;  // matched transfers (incl. sync)
  std::vector<LossSweepCell> cells;   // transport-major, loss-rate order

  /// True when every cell delivered every block exactly once.
  bool all_ok() const;
  /// Completion/inflation/integrity table, one row per cell.
  TextTable table() const;
  std::string to_string() const;
};

/// Builds the generated schedule for `topo`, lowers it once per
/// transport sweep, and executes it over the packet backend for every
/// (transport, loss rate) cell. Integrity violations are captured in
/// the cell (not thrown), so a sweep always renders.
LossSweepReport run_loss_sweep(const topology::Topology& topo,
                               const std::string& title,
                               const LossSweepConfig& config = {});

}  // namespace aapc::harness
