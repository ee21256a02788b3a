// Model validation: the fluid simulator's calibrated contention
// penalties versus the packet-level simulator's *emergent* behavior.
//
// simnet assumes eta(k) efficiency curves (calibrated once against the
// paper's measurements, see EXPERIMENTS.md). packetsim derives goodput
// from first principles — finite drop-tail switch buffers, sequential
// sliding windows, timeout retransmission. If the shapes agree, the
// fluid calibration is not a free parameter fit but a stand-in for real
// mechanics. Run side by side:
//   * incast: k senders -> 1 receiver on one switch;
//   * trunk: k disjoint flows across one inter-switch link;
//   * contention-free: disjoint same-switch pairs (both must stay at
//     wire speed — the property the paper's schedule relies on);
//   * the LAM flood on the paper's topology (a) at 64 KB.
// Exits 1 when one of the claims in the closing text fails.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/generators.hpp"

using namespace aapc;

namespace {

// The claims, as measured with the defaults of both models: the
// largest incast gap is 0.094 (k = 4), the trunk bracket holds from
// k = 4 on (below that AIMD reads up to 0.011 under the fluid curve),
// and a contention-free pair reaches 0.998 of the wire.
constexpr double kIncastGap = 0.10;
constexpr int kTrunkBracketFrom = 4;
constexpr double kFullRate = 0.995;
// The paper's measurement of the flood (§6, Figure 6(a)).
constexpr double kPaperFloodMs = 468.8;

double packet_goodput_fraction(
    const topology::Topology& topo,
    const std::vector<packetsim::PacketMessage>& messages,
    const packetsim::PacketNetworkParams& params) {
  const packetsim::PacketResult result =
      packetsim::simulate_packets(topo, messages, params);
  const double wire =
      params.link_bandwidth_bytes_per_sec *
      static_cast<double>(params.segment_payload) /
      static_cast<double>(params.segment_payload + params.segment_overhead);
  return result.goodput_bytes_per_sec / wire;
}

}  // namespace

int main() {
  const simnet::NetworkParams fluid;  // the calibrated defaults
  packetsim::PacketNetworkParams packet;
  packetsim::PacketNetworkParams aimd = packet;
  aimd.transport = packetsim::PacketNetworkParams::Transport::kAimd;
  aimd.window_segments = 32;
  std::vector<std::string> failed;

  std::cout << "fluid eta(k) (calibrated) vs packet-level goodput "
               "(emergent)\n\n";

  double incast_gap = 0;
  int incast_gap_k = 0;
  {
    TextTable table;
    table.set_header({"incast k", "fluid eta", "packet goodput"});
    const topology::Topology topo = topology::make_single_switch(25);
    for (const int k : {1, 2, 4, 8, 16, 23}) {
      std::vector<packetsim::PacketMessage> messages;
      for (int s = 1; s <= k; ++s) {
        messages.push_back(packetsim::PacketMessage{
            static_cast<topology::Rank>(s), 0, 1'000'000, 0});
      }
      const double eta = fluid.contention_efficiency(true, k);
      const double goodput = packet_goodput_fraction(topo, messages, packet);
      table.add_row({std::to_string(k), format_double(eta, 2),
                     format_double(goodput, 2)});
      if (std::abs(goodput - eta) > incast_gap) {
        incast_gap = std::abs(goodput - eta);
        incast_gap_k = k;
      }
    }
    std::cout << "incast (k senders -> 1 receiver)\n" << table.render()
              << '\n';
  }
  if (incast_gap > kIncastGap) {
    failed.push_back("incast gap " + format_double(incast_gap, 3) +
                     " at k = " + std::to_string(incast_gap_k) +
                     " is above " + format_double(kIncastGap, 2));
  }

  {
    TextTable table;
    table.set_header({"trunk k", "fluid eta", "packet (fixed W)",
                      "packet (AIMD)"});
    const topology::Topology topo = topology::make_chain({24, 24});
    for (const int k : {1, 2, 4, 8, 16}) {
      std::vector<packetsim::PacketMessage> messages;
      for (int s = 0; s < k; ++s) {
        messages.push_back(packetsim::PacketMessage{
            static_cast<topology::Rank>(s),
            static_cast<topology::Rank>(24 + s), 1'000'000, 0});
      }
      const double eta = fluid.contention_efficiency(false, k);
      const double fixed = packet_goodput_fraction(topo, messages, packet);
      const double additive = packet_goodput_fraction(topo, messages, aimd);
      table.add_row({std::to_string(k), format_double(eta, 2),
                     format_double(fixed, 2), format_double(additive, 2)});
      if (k >= kTrunkBracketFrom && !(fixed <= eta && eta <= additive)) {
        failed.push_back("trunk k = " + std::to_string(k) +
                         ": fixed-window <= fluid <= AIMD fails");
      }
    }
    std::cout << "trunk multiplexing (k disjoint flows, one link)\n"
              << table.render() << '\n';
  }

  {
    TextTable table;
    table.set_header({"disjoint pairs", "fluid", "packet (per pair)"});
    const topology::Topology topo = topology::make_single_switch(16);
    // Each pair's two edges carry one flow each.
    const double eta = fluid.contention_efficiency(true, 1);
    for (const int k : {1, 2, 4, 8}) {
      std::vector<packetsim::PacketMessage> messages;
      for (int s = 0; s < k; ++s) {
        messages.push_back(packetsim::PacketMessage{
            static_cast<topology::Rank>(2 * s),
            static_cast<topology::Rank>(2 * s + 1), 1'000'000, 0});
      }
      const double per_pair =
          packet_goodput_fraction(topo, messages, packet) / k;
      table.add_row({std::to_string(k), format_double(eta, 2),
                     format_double(per_pair, 2)});
      if (std::min(eta, per_pair) < kFullRate) {
        failed.push_back(std::to_string(k) +
                         " contention-free pairs run below full rate");
      }
    }
    std::cout << "contention-free pairs (both models: full rate each)\n"
              << table.render() << '\n';
  }

  {
    // Full AAPC flood: the LAM pattern (all 552 messages at once) on
    // the paper's topology (a) at 64 KB — the one scenario where we
    // have the fluid prediction AND the paper's physical measurement.
    const topology::Topology topo = topology::make_paper_topology_a();
    std::vector<packetsim::PacketMessage> messages;
    for (topology::Rank src = 0; src < 24; ++src) {
      for (topology::Rank dst = 0; dst < 24; ++dst) {
        if (src != dst) {
          messages.push_back(
              packetsim::PacketMessage{src, dst, 65536, 0});
        }
      }
    }
    const double fixed_ms =
        1e3 * packetsim::simulate_packets(topo, messages, packet).makespan;
    const double aimd_ms =
        1e3 * packetsim::simulate_packets(topo, messages, aimd).makespan;
    const harness::NamedAlgorithm lam{"LAM", [](Bytes msize) {
                                        return baselines::lam_alltoall(
                                            24, msize);
                                      }};
    const double fluid_ms = to_milliseconds(
        harness::run_algorithm(topo, lam, 64_KiB, {}).completion);
    TextTable table;
    table.set_header({"model", "LAM Alltoall, 24 nodes, 64 KB"});
    table.add_row({"packet, idealized AIMD", format_double(aimd_ms, 0) + " ms"});
    table.add_row({"fluid (calibrated)", format_double(fluid_ms, 0) + " ms"});
    table.add_row({"paper measurement",
                   format_double(kPaperFloodMs, 0) + " ms"});
    table.add_row({"packet, fixed window", format_double(fixed_ms, 0) + " ms"});
    std::cout << "end-to-end cross-check (same flood, four sources of "
                 "truth)\n"
              << table.render() << '\n';
    if (!(aimd_ms < fluid_ms && fluid_ms < kPaperFloodMs &&
          kPaperFloodMs < fixed_ms)) {
      failed.push_back("flood: AIMD < fluid < paper < fixed-window fails");
    }
  }

  std::cout << "Incast packet goodput stays within "
            << format_double(kIncastGap, 2)
            << " of the fluid eta (largest gap\n"
            << format_double(incast_gap, 3) << ", at k = " << incast_gap_k
            << "), and contention-free pairs run at full rate in both\n"
               "models — the two properties the paper's scheduling "
               "argument rests on.\nOn the trunk from k = "
            << kTrunkBracketFrom
            << " on, the primitive fixed-window transport\nbrackets the "
               "fluid curve from below and idealized AIMD + fast\n"
               "retransmit brackets it from above; the calibrated curve "
               "(from the\npaper's trunk measurements) sits between them, "
               "where real 2004 TCP —\nAIMD with coarse timers and small "
               "windows — lived. On the flood, AIMD <\nfluid < paper < "
               "fixed window. simnet (fluid) remains the measurement\n"
               "substrate for speed; packetsim justifies its loss curves.\n";
  for (const std::string& claim : failed) {
    std::cout << "FAIL: " << claim << '\n';
  }
  return failed.empty() ? 0 : 1;
}
