#include "aapc/flight/recorder.hpp"

#include <algorithm>
#include <bit>

#include "aapc/common/error.hpp"
#include "aapc/obs/metrics.hpp"

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
  // Checked before std::bit_ceil, which is undefined above 2^31, and
  // before the slots are allocated.
  AAPC_REQUIRE(capacity <= kMaxRingCapacity,
               "flight ring capacity " << capacity << " is above "
                                       << kMaxRingCapacity << " slots");
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
