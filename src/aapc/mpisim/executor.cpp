#include "aapc/mpisim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/mpisim/network_backend.hpp"
#include "aapc/mpisim/post_table.hpp"

namespace aapc::mpisim {

namespace {

// The flight recorder reads tags at or above its base as sync tokens,
// the lowering's convention.
static_assert(flight::Recorder::kSyncTagBase == kSyncTag);

/// The watchdog's first repost waits this long; each later one doubles.
constexpr SimTime kTransferRetryBackoff = milliseconds(5.0);

enum class RankState : std::uint8_t {
  kRunnable,
  kWait,      // blocked on one request
  kWaitAll,   // blocked on all requests posted so far
  kBarrier,   // arrived at a barrier
  kDone,
};

const char* state_name(RankState state) {
  switch (state) {
    case RankState::kRunnable: return "runnable";
    case RankState::kWait: return "wait";
    case RankState::kWaitAll: return "waitall";
    case RankState::kBarrier: return "barrier";
    case RankState::kDone: return "done";
  }
  return "?";
}

struct Request {
  bool is_send = false;
  Rank peer = -1;
  Bytes bytes = 0;
  Tag tag = 0;
  SimTime post_ready = 0;  // rank clock when the post finished
  bool matched = false;
  bool complete = false;
  SimTime completion = 0;
};

struct RankCtx {
  std::size_t pc = 0;
  SimTime clock = 0;
  RankState state = RankState::kRunnable;
  RequestId wait_target = -1;  // for kWait
  std::vector<Request> requests;
};

struct FlowIdHash {
  std::size_t operator()(simnet::FlowId id) const noexcept {
    auto h = static_cast<std::uint64_t>(id);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

struct FlowBinding {
  Rank send_rank;
  RequestId send_request;
  Rank recv_rank;
  RequestId recv_request;
  std::int64_t trace_index = -1;
  /// Watchdog reposts already performed for this transfer.
  std::int32_t attempts = 0;
  /// Integrity-ledger entry stamped when the transfer matched.
  DeliveryLedger::EntryId ledger_entry = -1;
  /// Flow activation time of this attempt.
  SimTime start = 0;
};

}  // namespace

Executor::Executor(const topology::Topology& topo,
                   const simnet::NetworkParams& net,
                   const ExecutorParams& exec)
    : topo_(topo), net_params_(net), exec_params_(exec) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
}

ExecutionResult Executor::run(const ProgramSet& set) {
  const std::int32_t ranks = topo_.machine_count();
  AAPC_REQUIRE(set.rank_count() == ranks,
               "program set '" << set.name << "' has " << set.rank_count()
                               << " programs for " << ranks << " machines");
  AAPC_REQUIRE(set.pair_bytes.empty() ||
                   set.pair_bytes.size() ==
                       static_cast<std::size_t>(ranks) *
                           static_cast<std::size_t>(ranks),
               "program set '" << set.name << "' has a pair table of "
                               << set.pair_bytes.size() << " entries for "
                               << ranks << " ranks");

  // The network model behind the backend seam: fluid (default,
  // bit-identical to the pre-seam executor) or segment-level packet.
  std::unique_ptr<NetworkBackend> backend;
  if (exec_params_.packet) {
    backend = std::make_unique<PacketBackend>(topo_, *exec_params_.packet);
  } else {
    backend = std::make_unique<FluidBackend>(topo_, net_params_);
  }
  NetworkBackend& network = *backend;
  // Scripted link faults become ordinary network events up front (the
  // packet backend rejects them — it models faults via packet->faults).
  for (const simnet::LinkCapacityEvent& event : exec_params_.capacity_events) {
    network.schedule_capacity_change(event.when, event.link,
                                     event.bandwidth_bytes_per_sec);
  }
  // Exactly-once audit of every matched transfer (pure bookkeeping:
  // never influences simulated time).
  DeliveryLedger ledger;
  std::vector<RankCtx> ctx(static_cast<std::size_t>(ranks));
  for (Rank r = 0; r < ranks; ++r) {
    ctx[static_cast<std::size_t>(r)].requests.reserve(
        set.programs[static_cast<std::size_t>(r)].ops.size());
  }
  // Deterministic per-rank OS-noise streams (see ExecutorParams).
  std::vector<Rng> jitter;
  jitter.reserve(static_cast<std::size_t>(ranks));
  for (Rank r = 0; r < ranks; ++r) {
    jitter.emplace_back(exec_params_.jitter_seed +
                        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r + 1));
  }
  // Per-rank fault state (inert default: a factor of exactly 1.0 leaves
  // the arithmetic bit-identical to a fault-free run).
  std::vector<double> cpu_slowdown(static_cast<std::size_t>(ranks), 1.0);
  std::vector<SimTime> slowdown_onset(static_cast<std::size_t>(ranks), 0.0);
  for (const RankFault& fault : exec_params_.rank_faults) {
    AAPC_REQUIRE(fault.rank >= 0 && fault.rank < ranks,
                 "rank fault for nonexistent rank " << fault.rank);
    AAPC_REQUIRE(fault.cpu_slowdown >= 1.0,
                 "cpu_slowdown must be >= 1, got " << fault.cpu_slowdown);
    const auto idx = static_cast<std::size_t>(fault.rank);
    cpu_slowdown[idx] = fault.cpu_slowdown;
    slowdown_onset[idx] = fault.slowdown_onset;
  }
  // Multiplier on rank r's CPU-time costs at local time t.
  auto cpu_factor = [&](Rank r, SimTime t) -> double {
    const auto idx = static_cast<std::size_t>(r);
    return t >= slowdown_onset[idx] ? cpu_slowdown[idx] : 1.0;
  };
  auto wakeup_jitter = [&](Rank r) -> SimTime {
    const SimTime base =
        exec_params_.wakeup_jitter_max > 0
            ? jitter[static_cast<std::size_t>(r)].next_double() *
                  exec_params_.wakeup_jitter_max
            : 0.0;
    return base * cpu_factor(r, ctx[static_cast<std::size_t>(r)].clock);
  };
  PostTable posts(ranks);
  std::unordered_map<simnet::FlowId, FlowBinding, FlowIdHash> flow_bindings;
  flow_bindings.reserve(static_cast<std::size_t>(2 * ranks));
  std::int32_t barrier_arrivals = 0;
  std::int32_t done_count = 0;

  ExecutionResult result;
  result.rank_finish.assign(static_cast<std::size_t>(ranks), 0);

  // Flight recorder (nullptr = the bit-identical recorder-free path).
  // Recording is pure observation — a handful of relaxed stores per
  // event — and never touches simulated state or the jitter streams.
  flight::Recorder* const flight = exec_params_.flight;
  if (flight != nullptr) {
    AAPC_REQUIRE(flight->rank_count() >= ranks,
                 "flight recorder covers " << flight->rank_count()
                                           << " ranks but the topology has "
                                           << ranks << " machines");
    // The calibration a dump's analyzer measures against. The analyzer
    // normalizes drain excess against the run's own transfers, so the
    // fluid calibration serves the packet backend too. The outcome is
    // stamped when the run completes and stays 0 if it throws.
    flight->run = flight::RunContext{
        static_cast<std::uint8_t>(exec_params_.packet ? 1 : 0),
        net_params_.effective_bandwidth(), net_params_.send_overhead,
        net_params_.recv_overhead};
  }

  // Transfer watchdog: min-heap of (deadline, flow) over in-flight
  // transfers, only populated when the watchdog is enabled. Entries of
  // flows that drained are skipped lazily.
  std::vector<std::pair<SimTime, simnet::FlowId>> watchdog;
  constexpr auto kWatchdogOrder =
      std::greater<std::pair<SimTime, simnet::FlowId>>{};

  // Registers the network flow of a matched transfer starting at
  // `start` and (re)binds it to the request pair. Used for the initial
  // rendezvous and for watchdog reposts.
  auto post_flow = [&](Rank send_rank, RequestId send_req, Rank recv_rank,
                       RequestId recv_req, SimTime start,
                       std::int64_t trace_index, std::int32_t attempts,
                       DeliveryLedger::EntryId ledger_entry) {
    const Bytes bytes = ctx[static_cast<std::size_t>(send_rank)]
                            .requests[static_cast<std::size_t>(send_req)]
                            .bytes;
    const simnet::FlowId flow =
        network.add_flow(topo_.machine_node(send_rank),
                         topo_.machine_node(recv_rank), bytes, start);
    flow_bindings.emplace(flow,
                          FlowBinding{send_rank, send_req, recv_rank,
                                      recv_req, trace_index, attempts,
                                      ledger_entry, start});
    if (exec_params_.transfer_timeout > 0) {
      watchdog.emplace_back(start + exec_params_.transfer_timeout, flow);
      std::push_heap(watchdog.begin(), watchdog.end(), kWatchdogOrder);
    }
  };

  auto make_flow = [&](Rank send_rank, RequestId send_req, Rank recv_rank,
                       RequestId recv_req) {
    Request& send = ctx[send_rank].requests[send_req];
    Request& recv = ctx[recv_rank].requests[recv_req];
    send.matched = true;
    recv.matched = true;
    const SimTime start = std::max(send.post_ready, recv.post_ready);
    std::int64_t trace_index = -1;
    if (exec_params_.record_trace) {
      trace_index = static_cast<std::int64_t>(result.trace.size());
      result.trace.push_back(MessageTrace{
          send_rank, recv_rank, send.bytes, send.tag, start, 0, 0,
          send.tag >= kSyncTag, 0, send_req, recv_req});
    }
    // Stamp the transfer with the sender's view; the delivery check
    // recomputes the fingerprint from the receiver's view.
    const DeliveryLedger::EntryId entry =
        ledger.record_send(send_rank, recv_rank, send.tag, send.bytes);
    post_flow(send_rank, send_req, recv_rank, recv_req, start, trace_index,
              0, entry);
    result.network_bytes += static_cast<double>(send.bytes);
    ++result.message_count;
  };

  auto request_complete = [&](const RankCtx& rank_ctx, RequestId id) {
    return rank_ctx.requests[static_cast<std::size_t>(id)].complete;
  };

  // Executes ops of rank r until it blocks or finishes. Returns true if
  // any op executed (progress).
  auto step_rank = [&](Rank r) -> bool {
    RankCtx& c = ctx[static_cast<std::size_t>(r)];
    bool progressed = false;
    while (true) {
      // Re-check blocking conditions.
      if (c.state == RankState::kDone || c.state == RankState::kBarrier) {
        return progressed;
      }
      if (c.state == RankState::kWait) {
        const Request& req =
            c.requests[static_cast<std::size_t>(c.wait_target)];
        if (!req.complete) return progressed;
        c.clock = std::max(c.clock, req.completion) + wakeup_jitter(r);
        c.state = RankState::kRunnable;
        progressed = true;
      }
      if (c.state == RankState::kWaitAll) {
        SimTime latest = c.clock;
        for (const Request& req : c.requests) {
          if (!req.complete) return progressed;
          latest = std::max(latest, req.completion);
        }
        c.clock = latest + wakeup_jitter(r);
        c.state = RankState::kRunnable;
        progressed = true;
      }
      const Program& program = set.programs[static_cast<std::size_t>(r)];
      if (c.pc >= program.ops.size()) {
        c.state = RankState::kDone;
        result.rank_finish[static_cast<std::size_t>(r)] = c.clock;
        ++done_count;
        return true;
      }
      const Op& op = program.ops[c.pc];
      switch (op.kind) {
        case OpKind::kIsend: {
          AAPC_REQUIRE(op.peer >= 0 && op.peer < ranks && op.peer != r,
                       "rank " << r << ": bad isend peer " << op.peer);
          const SimTime post_begin = c.clock;
          c.clock += net_params_.send_overhead * cpu_factor(r, c.clock);
          const auto id = static_cast<RequestId>(c.requests.size());
          const Bytes bytes = set.bytes(r, op);
          c.requests.push_back(Request{true, op.peer, bytes, op.tag(),
                                       c.clock, false, false, 0});
          if (flight != nullptr) {
            flight->record(r, flight::EventKind::kSendPost, op.peer,
                           op.tag(), bytes, c.clock, post_begin);
          }
          const RequestId recv =
              posts.match_or_wait(r, op.peer, op.tag(), PostSide::kSend, id);
          if (recv >= 0) make_flow(r, id, op.peer, recv);
          ++c.pc;
          break;
        }
        case OpKind::kIrecv: {
          AAPC_REQUIRE(op.peer >= 0 && op.peer < ranks && op.peer != r,
                       "rank " << r << ": bad irecv peer " << op.peer);
          const SimTime post_begin = c.clock;
          c.clock += net_params_.recv_overhead * cpu_factor(r, c.clock);
          const auto id = static_cast<RequestId>(c.requests.size());
          const Bytes bytes = set.bytes(r, op);
          c.requests.push_back(Request{false, op.peer, bytes, op.tag(),
                                       c.clock, false, false, 0});
          if (flight != nullptr) {
            flight->record(r, flight::EventKind::kRecvPost, op.peer,
                           op.tag(), bytes, c.clock, post_begin);
          }
          const RequestId send =
              posts.match_or_wait(op.peer, r, op.tag(), PostSide::kRecv, id);
          if (send >= 0) make_flow(op.peer, send, r, id);
          ++c.pc;
          break;
        }
        case OpKind::kWait: {
          const RequestId request = op.request();
          AAPC_REQUIRE(request >= 0 &&
                           request < static_cast<RequestId>(c.requests.size()),
                       "rank " << r << ": wait on unposted request "
                               << request);
          ++c.pc;
          if (request_complete(c, request)) {
            c.clock = std::max(
                c.clock,
                c.requests[static_cast<std::size_t>(request)].completion);
          } else {
            c.state = RankState::kWait;
            c.wait_target = request;
            if (flight != nullptr) {
              const Request& req =
                  c.requests[static_cast<std::size_t>(request)];
              if (!req.is_send && req.tag >= kSyncTag) {
                flight->record(r, flight::EventKind::kSyncWait, req.peer,
                               req.tag, req.bytes, c.clock, req.post_ready);
              }
            }
          }
          break;
        }
        case OpKind::kWaitAll: {
          ++c.pc;
          c.state = RankState::kWaitAll;
          break;  // the loop head resolves it (possibly immediately)
        }
        case OpKind::kBarrier: {
          ++c.pc;
          c.state = RankState::kBarrier;
          ++barrier_arrivals;
          break;
        }
        case OpKind::kCopy: {
          c.clock += static_cast<double>(set.bytes(r, op)) /
                     kMemcpyBandwidthBytesPerSec * cpu_factor(r, c.clock);
          ++c.pc;
          break;
        }
      }
      progressed = true;
    }
  };

  // Wakes every barrier-blocked rank (appending to `woken`) once all
  // live ranks have arrived.
  auto release_barrier_if_ready = [&](std::vector<Rank>& woken) -> bool {
    if (barrier_arrivals < ranks - done_count || barrier_arrivals == 0) {
      return false;
    }
    // All live ranks arrived. (Programs must all contain the barrier;
    // done ranks having exited earlier would be a malformed program set
    // that shows up as a deadlock below.)
    SimTime latest = 0;
    for (const RankCtx& c : ctx) {
      if (c.state == RankState::kBarrier) latest = std::max(latest, c.clock);
    }
    const SimTime release = latest + net_params_.barrier_latency;
    for (Rank r = 0; r < ranks; ++r) {
      RankCtx& c = ctx[static_cast<std::size_t>(r)];
      if (c.state == RankState::kBarrier) {
        c.clock = release + wakeup_jitter(r);
        c.state = RankState::kRunnable;
        woken.push_back(r);
      }
    }
    barrier_arrivals = 0;
    return true;
  };

  // Runnable-rank scheduling: a rank is stepped only when something can
  // have unblocked it — initially, after a barrier release, or when one
  // of its requests completes. Stepping one rank can never unblock
  // another mid-wave (request completion happens only in advance_to and
  // barrier release only between waves), so each wave's membership is
  // fixed up front; processing waves in ascending rank order makes the
  // schedule identical to the seed's step-every-rank polling loop.
  std::vector<Rank> wave;
  std::vector<char> queued(static_cast<std::size_t>(ranks), 0);
  wave.reserve(static_cast<std::size_t>(ranks));
  for (Rank r = 0; r < ranks; ++r) wave.push_back(r);
  auto enqueue = [&](Rank r) {
    if (!queued[static_cast<std::size_t>(r)]) {
      queued[static_cast<std::size_t>(r)] = 1;
      wave.push_back(r);
    }
  };

  std::vector<simnet::FlowId> completed;
  while (done_count < ranks) {
    // 1. Let every runnable rank run as far as it can (rank order).
    for (const Rank r : wave) {
      queued[static_cast<std::size_t>(r)] = 0;
      step_rank(r);
    }
    wave.clear();
    if (done_count >= ranks) break;
    // 2. Barrier release?
    if (release_barrier_if_ready(wave)) continue;
    // 3. Advance the network to its next event (or the watchdog's next
    // deadline); its completions decide the next wave. Watchdog entries
    // of already-drained flows are pruned first so a stale deadline
    // cannot mask a genuine stall.
    while (!watchdog.empty() && flow_bindings.find(watchdog.front().second) ==
                                    flow_bindings.end()) {
      std::pop_heap(watchdog.begin(), watchdog.end(), kWatchdogOrder);
      watchdog.pop_back();
    }
    SimTime next = network.next_event_time();
    if (!watchdog.empty()) {
      next = std::min(next, watchdog.front().first);
    }
    if (next == simnet::kNever) {
      // Every live rank is blocked and no event can unblock any of
      // them: plain deadlock (mismatched posts) or transfers stuck
      // behind a down link with the watchdog disabled.
      // Build the typed diagnostic (shared with flight::analyze, so
      // stall reports and analyzer verdicts spell transfers the same
      // way); its to_string() is the exception message.
      flight::StallDiagnostic diag;
      diag.program_set = set.name;
      for (Rank r = 0; r < ranks; ++r) {
        const RankCtx& c = ctx[static_cast<std::size_t>(r)];
        if (c.state == RankState::kDone) continue;
        flight::BlockedRank blocked;
        blocked.rank = r;
        blocked.state = state_name(c.state);
        blocked.pc = static_cast<std::int64_t>(c.pc);
        blocked.program_size = static_cast<std::int64_t>(
            set.programs[static_cast<std::size_t>(r)].ops.size());
        blocked.clock = c.clock;
        for (const Request& req : c.requests) {
          if (req.complete) continue;
          ++blocked.pending_total;
          if (blocked.pending.size() >= 8) continue;
          blocked.pending.push_back(flight::PendingRequest{
              req.is_send, req.peer, req.tag,
              static_cast<std::int64_t>(req.bytes), req.matched});
        }
        diag.blocked.push_back(std::move(blocked));
      }
      // Sort numerically by (sender, receiver, tag) — not by rendered
      // string — so "rank 2" precedes "rank 10" and the diagnostic is
      // byte-stable regardless of hash-map iteration order.
      for (const auto& [flow, binding] : flow_bindings) {
        if (network.flow_rate(flow) == 0 && network.flow_remaining(flow) > 0) {
          const Request& send =
              ctx[static_cast<std::size_t>(binding.send_rank)]
                  .requests[static_cast<std::size_t>(binding.send_request)];
          diag.stuck.push_back(flight::StuckTransfer{
              binding.send_rank, binding.recv_rank, send.tag,
              static_cast<std::int64_t>(send.bytes),
              network.flow_remaining(flow)});
        }
      }
      std::sort(diag.stuck.begin(), diag.stuck.end(),
                [](const flight::StuckTransfer& a,
                   const flight::StuckTransfer& b) {
                  return std::tie(a.src, a.dst, a.tag) <
                         std::tie(b.src, b.dst, b.tag);
                });
      throw ExecutionStalled(std::move(diag));
    }
    completed.clear();
    network.advance_to(next, completed);
    for (const simnet::FlowId flow : completed) {
      const auto it = flow_bindings.find(flow);
      AAPC_CHECK(it != flow_bindings.end());
      const FlowBinding& binding = it->second;
      const SimTime drained = network.now();
      Request& send = ctx[static_cast<std::size_t>(binding.send_rank)]
                          .requests[static_cast<std::size_t>(
                              binding.send_request)];
      Request& recv = ctx[static_cast<std::size_t>(binding.recv_rank)]
                          .requests[static_cast<std::size_t>(
                              binding.recv_request)];
      send.complete = true;
      send.completion = drained;
      recv.complete = true;
      recv.completion = drained + network.extra_delivery_latency(flow);
      if (recv.bytes <= simnet::kSmallMessageThreshold) {
        recv.completion += net_params_.small_message_extra_latency;
      }
      // Delivery audit, from the *receiver's* request fields: a flow
      // bound to the wrong request pair fingerprints differently.
      ledger.record_delivery(binding.ledger_entry, recv.peer,
                             binding.recv_rank, recv.tag, recv.bytes);
      if (binding.trace_index >= 0) {
        MessageTrace& record =
            result.trace[static_cast<std::size_t>(binding.trace_index)];
        record.end = drained;
        record.delivered = recv.completion;
      }
      if (flight != nullptr) {
        flight->record(binding.send_rank, flight::EventKind::kSendComplete,
                       binding.recv_rank, send.tag, send.bytes, drained,
                       binding.start);
        flight->record(binding.recv_rank,
                       recv.tag >= kSyncTag
                           ? flight::EventKind::kSyncRelease
                           : flight::EventKind::kRecvComplete,
                       recv.peer, recv.tag, recv.bytes, recv.completion,
                       recv.post_ready);
      }
      enqueue(binding.send_rank);
      enqueue(binding.recv_rank);
      flow_bindings.erase(it);
    }
    // 4. Watchdog deadlines due now (completions at the same instant
    // won above and already unbound their flows): cancel each stuck
    // flow and repost it with exponential backoff, or abort the run
    // once its retries are exhausted.
    while (!watchdog.empty() && watchdog.front().first <= network.now()) {
      const simnet::FlowId flow = watchdog.front().second;
      std::pop_heap(watchdog.begin(), watchdog.end(), kWatchdogOrder);
      watchdog.pop_back();
      const auto it = flow_bindings.find(flow);
      if (it == flow_bindings.end()) continue;  // drained before deadline
      const FlowBinding binding = it->second;
      const Request& send = ctx[static_cast<std::size_t>(binding.send_rank)]
                                .requests[static_cast<std::size_t>(
                                    binding.send_request)];
      ++result.transfer_timeouts;
      if (binding.attempts >= exec_params_.transfer_max_retries) {
        flight::AbortDiagnostic diag;
        diag.transfer = flight::StuckTransfer{
            binding.send_rank, binding.recv_rank, send.tag,
            static_cast<std::int64_t>(send.bytes),
            network.flow_remaining(flow)};
        diag.attempts = binding.attempts + 1;
        diag.timeout = exec_params_.transfer_timeout;
        throw TransferAborted(std::move(diag));
      }
      network.cancel_flow(flow);
      flow_bindings.erase(it);
      const SimTime backoff =
          kTransferRetryBackoff * std::pow(2.0, binding.attempts);
      ++result.transfer_retries;
      if (binding.trace_index >= 0) {
        ++result.trace[static_cast<std::size_t>(binding.trace_index)].retries;
      }
      if (flight != nullptr) {
        flight->record(binding.send_rank, flight::EventKind::kWatchdogRetry,
                       binding.recv_rank, send.tag, send.bytes,
                       network.now(), binding.start);
      }
      ledger.record_retry(binding.ledger_entry);
      post_flow(binding.send_rank, binding.send_request, binding.recv_rank,
                binding.recv_request, network.now() + backoff,
                binding.trace_index, binding.attempts + 1,
                binding.ledger_entry);
    }
    std::sort(wave.begin(), wave.end());
  }

  // Leftover unmatched posts indicate a malformed algorithm. The table
  // groups them by (sender, receiver, tag, side) in numeric order, so
  // the message names the same posts in the same order on every run.
  if (posts.waiting() > 0) {
    const std::vector<PostTable::Leftover> leftovers = posts.leftovers();
    std::ostringstream os;
    os << "program set '" << set.name << "' finished with unmatched posts:";
    std::size_t listed = 0;
    for (const PostTable::Leftover& u : leftovers) {
      if (listed >= 8) {
        os << "\n  ... " << (leftovers.size() - listed) << " more";
        break;
      }
      ++listed;
      os << "\n  " << u.count << " unmatched "
         << (u.side == PostSide::kSend ? "send(s)" : "recv(s)") << " rank "
         << u.sender << " -> rank " << u.receiver << " tag=" << u.tag;
    }
    throw InvalidArgument(os.str());
  }

  result.completion_time =
      *std::max_element(result.rank_finish.begin(), result.rank_finish.end());
  result.peak_waiting_posts = posts.nodes();
  network.finish(result);
  result.integrity = ledger.report();
  AAPC_CHECK_MSG(result.integrity.ok(), "execution of program set '"
                                            << set.name << "' violated "
                                            << "data integrity — "
                                            << result.integrity.summary());
  if (flight != nullptr) {
    flight->run.completion_time = result.completion_time;
    if (result.packet) {
      flight->run.retransmissions = result.packet->retransmissions;
      flight->run.segments_lost = result.packet->segments_lost;
    }
  }
  return result;
}

}  // namespace aapc::mpisim
