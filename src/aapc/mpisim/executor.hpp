// Deterministic executor: runs one Program per rank against the fluid
// network and reports completion times.
//
// Time model:
//  * each rank has a local clock; posting an ISEND/IRECV costs
//    send_overhead/recv_overhead of that rank's CPU time (serializing a
//    rank's own posts, as a real MPI stack does);
//  * a matched (send, recv) pair becomes one network flow activating at
//    max(sender post end, receiver post end) — rendezvous semantics;
//  * the send request completes when the flow drains; the receive
//    completes per_hop_latency * hops later (store-and-forward);
//  * WAIT/WAITALL resume the rank at max(rank clock, completion time);
//  * BARRIER releases all ranks at max(arrival clocks) + barrier_latency.
//
// The executor throws ExecutionStalled (an InvalidArgument) with a
// per-rank diagnostic naming the blocked ranks and their pending
// sends/receives when the program set cannot make progress — whether
// from a plain deadlock (mismatched sends/receives) or a fault-induced
// stall (crashed rank, transfers stuck behind a down link with the
// watchdog disabled). TransferAborted reports a transfer whose
// watchdog retries were exhausted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/flight/diagnostics.hpp"
#include "aapc/mpisim/integrity.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::obs {
class Registry;
}  // namespace aapc::obs

namespace aapc::flight {
class Recorder;
}  // namespace aapc::flight

namespace aapc::mpisim {

/// The run cannot make progress: every live rank is blocked and the
/// network has no event to deliver. Carries a typed
/// flight::StallDiagnostic naming each rank's state, its pending
/// requests, unmatched posts, and any in-flight transfer stuck at rate
/// 0 behind a down link; what() is its rendering (the same formatting
/// path flight::analyze() verdicts use). Derives from InvalidArgument
/// (a deadlocking program set is malformed input).
class ExecutionStalled : public InvalidArgument {
 public:
  explicit ExecutionStalled(flight::StallDiagnostic diagnostic)
      : InvalidArgument(diagnostic.to_string()),
        diagnostic_(std::move(diagnostic)) {}
  const flight::StallDiagnostic& diagnostic() const { return diagnostic_; }

 private:
  flight::StallDiagnostic diagnostic_;
};

/// A transfer exceeded ExecutorParams::transfer_timeout with all
/// retries exhausted (e.g. a permanently-down link); the diagnostic
/// names the endpoint ranks, tag, size, and attempt count.
class TransferAborted : public Error {
 public:
  explicit TransferAborted(flight::AbortDiagnostic diagnostic)
      : Error(diagnostic.to_string()), diagnostic_(std::move(diagnostic)) {}
  const flight::AbortDiagnostic& diagnostic() const { return diagnostic_; }

 private:
  flight::AbortDiagnostic diagnostic_;
};

/// One matched point-to-point transfer, for tracing/visualization.
struct MessageTrace {
  Rank src = -1;
  Rank dst = -1;
  Bytes bytes = 0;
  Tag tag = 0;
  /// Flow activation (both sides posted) and drain times.
  SimTime start = 0;
  SimTime end = 0;
  /// Receive-side completion (end + per-hop latency, small-message
  /// latency included).
  SimTime delivered = 0;
  bool is_sync = false;
  /// Watchdog reposts this transfer needed before draining.
  std::int32_t retries = 0;
  /// The matched posts: indices into the sender's and the receiver's
  /// request tables (posting order, as Op::wait names them).
  RequestId send_request = -1;
  RequestId recv_request = -1;
};

/// A labeled instant on the simulated timeline — fault injections,
/// watchdog retries/aborts. Rendered as instant events in the Chrome
/// trace (trace::to_chrome_json overload).
struct FaultMarker {
  SimTime time = 0;
  std::string label;
};

/// Degraded behaviour of one rank: CPU slowdown from an onset time
/// (straggler) and/or crash-stop. A crashed rank stops executing its
/// program; the run then ends in ExecutionStalled naming it (fail-stop
/// without failure detection — in-flight transfers it already matched
/// keep draining).
struct RankFault {
  Rank rank = -1;
  /// Multiplier (>= 1) on the rank's CPU-time costs — send/recv posting
  /// overheads, local copies, wakeup jitter — from slowdown_onset on.
  double cpu_slowdown = 1.0;
  SimTime slowdown_onset = 0;
  /// Simulated time at which the rank crash-stops; kNever = healthy.
  SimTime crash_time = simnet::kNever;
};

/// Packet-model counters of a run over the packet backend.
struct PacketNetworkSummary {
  std::int64_t segments_sent = 0;
  std::int64_t segments_dropped = 0;  // queue overflow
  std::int64_t retransmissions = 0;
  std::int64_t segments_lost = 0;       // stochastic link loss
  std::int64_t segments_corrupted = 0;  // checksum discards
  std::int32_t peak_queue_occupancy = 0;
};

struct ExecutionResult {
  /// Completion time of the whole operation (max over ranks).
  SimTime completion_time = 0;
  /// Per-rank finish times.
  std::vector<SimTime> rank_finish;
  /// Payload bytes moved through the network (sync messages included).
  double network_bytes = 0;
  /// Number of matched point-to-point messages.
  std::int64_t message_count = 0;
  /// The most posts that waited for a match at once: the node count of
  /// the run's post table (mpisim/post_table.hpp).
  std::int64_t peak_waiting_posts = 0;
  simnet::NetworkStats network_stats;
  /// Per-message timeline; populated when ExecutorParams::record_trace.
  std::vector<MessageTrace> trace;
  /// Transfers the watchdog timed out (each is then retried or aborted).
  std::int64_t transfer_timeouts = 0;
  /// Watchdog reposts after a timeout.
  std::int64_t transfer_retries = 0;
  /// Timeline markers, sorted by time: ExecutorParams::fault_markers
  /// plus one marker per watchdog retry.
  std::vector<FaultMarker> fault_markers;
  /// Exactly-once audit of every matched transfer (always populated;
  /// integrity.ok() must hold for a correct run).
  IntegrityReport integrity;
  /// Packet-backend counters; set when the packet backend ran.
  std::optional<PacketNetworkSummary> packet;

  /// Aggregate throughput over the run: `payload_bytes` (caller-defined,
  /// normally |M|*(|M|-1)*msize) divided by completion time.
  double aggregate_throughput(double payload_bytes) const {
    return completion_time > 0 ? payload_bytes / completion_time : 0.0;
  }
};

/// Extra knobs for the executor beyond the network model.
struct ExecutorParams {
  /// Local-copy bandwidth for kCopy ops (memcpy of the rank's own
  /// block); well above link speed on any real node.
  double memcpy_bandwidth_bytes_per_sec = 1.0e9;

  /// OS wakeup noise: every time a rank resumes from a blocking wait it
  /// pays an extra uniform [0, wakeup_jitter_max) delay, drawn from a
  /// deterministic per-rank stream (runs are exactly reproducible for a
  /// given seed). This is what desynchronizes step-based algorithms
  /// (MPICH ring/pairwise) in practice: drifted steps overlap and incur
  /// the contention the paper's pair-wise synchronization prevents. A
  /// perfectly lockstep simulation would hide that effect entirely.
  SimTime wakeup_jitter_max = milliseconds(1.0);
  std::uint64_t jitter_seed = 0xA4C5u;

  /// Record a MessageTrace per matched transfer in the result.
  bool record_trace = false;

  /// Network model to run over (mpisim/network_backend.hpp). Unset,
  /// the run uses the calibrated max-min fluid model
  /// (simnet::FluidNetwork) of the NetworkParams the executor was built
  /// with. Set, it uses the segment-level packet model
  /// (packetsim::PacketNetwork) with these settings: finite queues,
  /// transports, and stochastic loss/corruption/jitter. capacity_events
  /// are then rejected — the packet model expresses faults via
  /// packet->faults instead.
  std::optional<packetsim::PacketNetworkParams> packet;

  // ---- fault injection (all defaults inert: a run with none of these
  // set is bit-identical to the pre-fault executor) ----

  /// Scripted link-capacity timeline applied to the run's network
  /// (usually faults::compile() output). Events are scheduled before
  /// the first op executes.
  std::vector<simnet::LinkCapacityEvent> capacity_events;

  /// Per-rank degradations (straggler slowdown, crash-stop).
  std::vector<RankFault> rank_faults;

  /// Markers copied into ExecutionResult::fault_markers (normally the
  /// human-readable timeline of the injected fault plan).
  std::vector<FaultMarker> fault_markers;

  /// Transfer watchdog: a matched transfer that has not drained within
  /// `transfer_timeout` of activating is canceled and reposted with
  /// exponential backoff (5 ms * 2^attempt), up to transfer_max_retries
  /// reposts; exhausting them throws TransferAborted. 0 disables the
  /// watchdog — stuck transfers then surface as ExecutionStalled.
  SimTime transfer_timeout = 0;
  std::int32_t transfer_max_retries = 3;

  /// Optional metrics sink: when set, the run exports the
  /// aapc_executor_* series (runs, messages by kind, per-transfer and
  /// sync-wait histograms, watchdog counters) plus the network model's
  /// series (aapc_simnet_* / aapc_packet_*) into this registry — see
  /// docs/OBSERVABILITY.md. nullptr (the default) records nothing and
  /// keeps the event loop on the metrics-free path.
  obs::Registry* metrics = nullptr;

  /// Optional flight recorder: when set, the run appends compact events
  /// (send/recv posts and completions, sync waits/releases, watchdog
  /// retries) to the recorder's per-rank rings — bounded memory,
  /// overwrite-oldest, a few atomic stores per event — and stamps the
  /// run into its flight::RunContext: backend and calibration at the
  /// start, completion time and packet-loss counters on completion (0
  /// after a stall or abort). The recorder must cover at least the
  /// topology's machine count. nullptr (the default) records nothing
  /// and keeps the event loop bit-identical to the recorder-free
  /// executor. See docs/OBSERVABILITY.md §flight-recorder; dump with
  /// flight::snapshot(recorder, label) after the run (the rings stay
  /// valid when it threw) and diagnose with flight::analyze().
  flight::Recorder* flight = nullptr;
};

class Executor {
 public:
  Executor(const topology::Topology& topo, const simnet::NetworkParams& net,
           const ExecutorParams& exec = {});

  /// Runs the program set to completion (or throws on deadlock). The
  /// program set must have exactly topo.machine_count() programs.
  ExecutionResult run(const ProgramSet& set);

 private:
  const topology::Topology& topo_;
  simnet::NetworkParams net_params_;
  ExecutorParams exec_params_;
};

}  // namespace aapc::mpisim
