#include "aapc/flight/recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "aapc/common/error.hpp"
#include "aapc/core/schedule.hpp"
#include "aapc/obs/metrics.hpp"
#include "aapc/sync/sync_plan.hpp"

namespace aapc::flight {


const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSendPost: return "send_post";
    case EventKind::kRecvPost: return "recv_post";
    case EventKind::kSendComplete: return "send_complete";
    case EventKind::kRecvComplete: return "recv_complete";
    case EventKind::kSyncWait: return "sync_wait";
    case EventKind::kSyncRelease: return "sync_release";
    case EventKind::kWatchdogRetry: return "watchdog_retry";
  }
  return "?";
}

Ring::Ring(std::uint32_t capacity) {
  capacity_ = std::max<std::uint32_t>(8, std::bit_ceil(capacity));
  mask_ = capacity_ - 1;
  words_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(capacity_) * kWordsPerSlot + kCursorWords);
  head_().store(0, std::memory_order_relaxed);
  begin_().store(0, std::memory_order_relaxed);
}


std::uint64_t Ring::snapshot(std::vector<Event>& out) const {
  out.clear();
  const std::uint64_t published = head_().load(std::memory_order_acquire);
  const std::uint64_t first =
      published > capacity_ ? published - capacity_ : 0;
  std::vector<std::uint64_t> copy;
  copy.reserve(static_cast<std::size_t>(published - first) * kWordsPerSlot);
  for (std::uint64_t i = first; i < published; ++i) {
    const std::atomic<std::uint64_t>* slot =
        slots_() + static_cast<std::size_t>(i & mask_) * kWordsPerSlot;
    for (std::uint32_t w = 0; w < kWordsPerSlot; ++w) {
      copy.push_back(slot[w].load(std::memory_order_acquire));
    }
  }
  // A writer that wrapped during the copy may have rewritten the slots
  // of the oldest entries (entry i shares a slot with entry
  // i + capacity). The writer retires entry i via begin_ *before*
  // touching its slot, and a word copied from a rewrite was acquired
  // from push()'s release store, so the begin_ load below (ordered
  // after those acquires) already excludes any entry whose copy could
  // be torn. A quiescent full ring retains all `capacity` entries.
  const std::uint64_t safe_first = begin_().load(std::memory_order_relaxed);
  const std::uint64_t begin = std::max(first, safe_first);
  if (begin < published) {
    out.reserve(static_cast<std::size_t>(published - begin));
  }
  for (std::uint64_t i = begin; i < published; ++i) {
    out.push_back(
        detail::unpack_event(&copy[static_cast<std::size_t>(i - first) *
                           kWordsPerSlot]));
  }
  return published - static_cast<std::uint64_t>(out.size());
}

Recorder::Recorder(std::int32_t rank_count, const RecorderParams& params) {
  AAPC_REQUIRE(rank_count > 0, "flight recorder needs >= 1 rank, got "
                                   << rank_count);
  rings_.reserve(static_cast<std::size_t>(rank_count));
  for (std::int32_t r = 0; r < rank_count; ++r) {
    rings_.emplace_back(params.ring_capacity);
  }
}

void Recorder::annotate(const core::Schedule& schedule,
                        const sync::SyncPlan& plan) {
  const std::int32_t ranks = rank_count();
  data_table_.assign(
      static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks),
      kNoCoord);
  auto coords = [](std::int32_t phase, std::int64_t message) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(phase))
            << 32) |
           static_cast<std::uint32_t>(static_cast<std::int32_t>(message));
  };
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (std::int64_t i = schedule.phase_begin[p];
         i < schedule.phase_begin[p + 1]; ++i) {
      const core::Message& m = schedule.messages[static_cast<std::size_t>(i)];
      if (m.src < 0 || m.src >= ranks || m.dst < 0 || m.dst >= ranks) {
        continue;
      }
      data_table_[static_cast<std::size_t>(m.src) *
                      static_cast<std::size_t>(ranks) +
                  static_cast<std::size_t>(m.dst)] = coords(p, i);
    }
  }
  sync_table_.assign(plan.edges.size(), kNoCoord);
  for (std::size_t i = 0; i < plan.edges.size(); ++i) {
    const std::int32_t gated = plan.edges[i].to;
    if (gated < 0 || gated >= schedule.message_count()) continue;
    sync_table_[i] = coords(schedule.phase_of(gated), gated);
  }
  annotated_ = true;
}

void Recorder::stamp_annotation(std::int32_t rank, Event& event) const {
  std::uint64_t coords = kNoCoord;
  if (event.tag >= kSyncTagBase) {
    const auto idx = static_cast<std::size_t>(event.tag - kSyncTagBase);
    if (idx >= sync_table_.size()) return;
    coords = sync_table_[idx];
  } else {
    // Map the transfer to its scheduled (src, dst): the recording rank
    // is the sender for send-side kinds and the receiver otherwise.
    std::int32_t src = rank;
    std::int32_t dst = event.peer;
    if (event.kind == EventKind::kRecvPost ||
        event.kind == EventKind::kRecvComplete) {
      src = event.peer;
      dst = rank;
    }
    const std::int32_t ranks = rank_count();
    if (src < 0 || src >= ranks || dst < 0 || dst >= ranks) return;
    coords = data_table_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(ranks) +
                         static_cast<std::size_t>(dst)];
  }
  if (coords == kNoCoord) return;
  event.phase = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(coords >> 32));
  event.message =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(coords));
}

std::uint64_t Recorder::total_recorded() const {
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.pushed();
  return total;
}

std::uint64_t Recorder::snapshot_rank(std::int32_t rank,
                                      std::vector<Event>& out) const {
  AAPC_REQUIRE(rank >= 0 && rank < rank_count(),
               "flight snapshot of nonexistent rank " << rank);
  return rings_[static_cast<std::size_t>(rank)].snapshot(out);
}

void Recorder::publish_metrics(obs::Registry& registry) const {
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::uint64_t peak = 0;
  for (const Ring& ring : rings_) {
    const std::uint64_t pushed = ring.pushed();
    total += pushed;
    const std::uint64_t kept =
        std::min<std::uint64_t>(pushed, ring.capacity());
    dropped += pushed - kept;
    peak = std::max(peak, kept);
  }
  registry
      .counter("aapc_flight_events_total",
               "Events recorded across all rank rings")
      .set_total(static_cast<std::int64_t>(total));
  registry
      .counter("aapc_flight_dropped_total",
               "Events lost to ring-buffer overwrite")
      .set_total(static_cast<std::int64_t>(dropped));
  registry
      .gauge("aapc_flight_ring_peak_occupancy",
             "Most-filled rank ring, in events")
      .set_max(static_cast<double>(peak));
  registry
      .gauge("aapc_flight_rings", "Rank rings allocated by the recorder")
      .set(static_cast<double>(rank_count()));
}

}  // namespace aapc::flight
