// Flight recorder: always-on, bounded-memory per-rank ring logs of
// executor events (Megatrace-style). Each rank owns a lock-free
// fixed-capacity ring (single writer per rank, power-of-two slots,
// overwrite-oldest); the executor records compact binary events —
// send/recv post and completion, sync-token wait/release, watchdog
// retry — stamped with sim-time, and stamps the run's calibration and
// outcome into the recorder (RunContext). A snapshot can run
// concurrently with writers (seqlock-style: entries that may have
// been overwritten mid-copy are discarded, never returned torn).
//
// The recorder never influences the simulation: recording is a handful
// of atomic stores, and ExecutorParams::flight == nullptr (the
// default) keeps the executor on a bit-identical recorder-free path.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace aapc::flight {

/// What happened. Each kind pairs the event time with a kind-specific
/// second timestamp in Event::aux — together they bound the interval
/// the analyzer attributes (post cost, drain time, wait span).
enum class EventKind : std::uint8_t {
  /// ISEND posted; aux = rank clock before the post, so
  /// time - aux = send_overhead x cpu_factor (straggler signal).
  kSendPost = 1,
  /// IRECV posted; aux = rank clock before the post.
  kRecvPost = 2,
  /// Flow drained, sender view; aux = flow activation time, so
  /// time - aux = network drain duration (link-health signal).
  kSendComplete = 3,
  /// Payload delivered, receiver view; aux = the recv's post_ready.
  kRecvComplete = 4,
  /// Rank blocked waiting on a sync-token recv; aux = post_ready.
  kSyncWait = 5,
  /// Sync token delivered (next-phase send unblocked); aux = post_ready.
  kSyncRelease = 6,
  /// Watchdog canceled and reposted a stuck transfer; aux = the start
  /// time of the aborted attempt.
  kWatchdogRetry = 7,
};
inline constexpr std::uint8_t kEventKindMax = 7;
const char* kind_name(EventKind kind);

/// One recorded event (rings store it packed into four 64-bit words,
/// see pack_event).
struct Event {
  EventKind kind = EventKind::kSendPost;
  std::int32_t peer = -1;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;
  /// Simulated time of the event.
  double time = 0;
  /// Kind-specific second timestamp (see EventKind).
  double aux = 0;
};

/// Most slots a ring may have: Ring refuses more, and decode_dump
/// rejects a dump that claims more.
inline constexpr std::uint32_t kMaxRingCapacity = 1u << 24;

/// Lock-free single-writer ring of Events. Slots are four atomic words;
/// the writer publishes a monotonic head counter with release order
/// after filling a slot, so a concurrent snapshot never observes a torn
/// entry it keeps: any entry whose slot could have been rewritten
/// during the copy is dropped (counted in the returned drop total).
class Ring {
 public:
  static constexpr std::uint32_t kWordsPerSlot = 4;

  /// `capacity` is rounded up to a power of two (minimum 8); above
  /// kMaxRingCapacity it throws InvalidArgument.
  explicit Ring(std::uint32_t capacity);

  Ring(Ring&&) noexcept = default;
  Ring& operator=(Ring&&) noexcept = default;

  std::uint32_t capacity() const { return capacity_; }
  /// Total events ever pushed (monotonic).
  std::uint64_t pushed() const {
    return head_().load(std::memory_order_acquire);
  }

  /// Single-writer append; overwrites the oldest entry when full.
  /// Defined inline below — this is the simulator's hot path, and the
  /// packing must fuse with the caller's field computations.
  void push(const Event& event) noexcept;

  /// Copies the retained events, oldest first, into `out` (replacing
  /// its contents). Safe to run concurrently with push (one writer);
  /// returns the number of events not retained — overwritten by ring
  /// wraparound or discarded as potentially torn.
  std::uint64_t snapshot(std::vector<Event>& out) const;

 private:
  // words_[0] = head (entries published, complete and readable),
  // words_[1] = begin (first entry index whose slot is still intact),
  // words_[2..] = slots. The writer advances begin *before* clobbering
  // a wrapped slot and stores slot words with release order, and the
  // reader loads them with acquire order, so a reader that copied
  // clobbered words is guaranteed to also observe the advanced begin
  // and discard them — a quiescent full ring retains all `capacity`
  // entries. The ordering lives on the atomics themselves, where
  // ThreadSanitizer can check it (it does not model fences). The
  // cursors live in the slots' allocation so the push hot path chases
  // one pointer, and the heap keeps them address-stable while Ring
  // stays movable (vector<Ring> growth).
  static constexpr std::size_t kCursorWords = 2;
  std::atomic<std::uint64_t>& head_() const { return words_[0]; }
  std::atomic<std::uint64_t>& begin_() const { return words_[1]; }
  std::atomic<std::uint64_t>* slots_() const {
    return words_.get() + kCursorWords;
  }

  std::uint32_t capacity_ = 0;
  std::uint32_t mask_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

namespace detail {

// Slot layout (four words = 32 bytes, half a cache line, so each event
// costs 6 stores and at most one dirty line):
//   w0 = kind u8 | bytes << 8
//   w1 = peer u32 | tag u32 << 32
//   w2 = aux f64 bits
//   w3 = time f64 bits
// Every field round-trips exactly; bytes keeps 56 bits (64 PiB).
inline void pack_event(const Event& e,
                       std::uint64_t out[Ring::kWordsPerSlot]) {
  out[0] = static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)) |
           (static_cast<std::uint64_t>(e.bytes) << 8);
  out[1] = static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.peer)) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.tag))
            << 32);
  out[2] = std::bit_cast<std::uint64_t>(e.aux);
  out[3] = std::bit_cast<std::uint64_t>(e.time);
}

inline Event unpack_event(const std::uint64_t w[Ring::kWordsPerSlot]) {
  Event e;
  e.kind = static_cast<EventKind>(static_cast<std::uint8_t>(w[0]));
  e.bytes = static_cast<std::int64_t>(w[0]) >> 8;
  e.peer = static_cast<std::int32_t>(static_cast<std::uint32_t>(w[1]));
  e.tag = static_cast<std::int32_t>(static_cast<std::uint32_t>(w[1] >> 32));
  e.aux = std::bit_cast<double>(w[2]);
  e.time = std::bit_cast<double>(w[3]);
  return e;
}

}  // namespace detail

inline void Ring::push(const Event& event) noexcept {
  std::uint64_t packed[kWordsPerSlot];
  detail::pack_event(event, packed);
  const std::uint64_t head = head_().load(std::memory_order_relaxed);
  if (head >= capacity_) {
    // About to clobber the slot of entry head - capacity: retire it
    // first. Each slot store below is a release, so a snapshot that
    // acquires any rewritten word also sees this retirement.
    begin_().store(head - capacity_ + 1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>* slot =
      slots_() + static_cast<std::size_t>(head & mask_) * kWordsPerSlot;
  for (std::uint32_t w = 0; w < kWordsPerSlot; ++w) {
    slot[w].store(packed[w], std::memory_order_release);
  }
  // Release-publish: a snapshot that observes head > i has the complete
  // words of entry i (unless the slot was since rewritten — handled by
  // the begin cursor above).
  head_().store(head + 1, std::memory_order_release);
  // Events on one rank arrive in bursts: start fetching the next
  // slot's line for write now so the burst's next push doesn't stall
  // on it.
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(
      slots_() + static_cast<std::size_t>((head + 1) & mask_) * kWordsPerSlot,
      1);
#endif
}

struct RecorderParams {
  /// Slots per rank ring; rounded up to a power of two, at most
  /// kMaxRingCapacity. The default (32 KiB of slots per rank) retains
  /// every event of a scheduled alltoall on fabrics up to ~256 ranks
  /// while keeping each ring's working set cache-resident — ring
  /// footprint, not the per-event stores, dominates recorder overhead
  /// once rings outgrow the cache (see EXPERIMENTS.md section E13).
  /// Larger fabrics overwrite oldest first; the analyzer accepts
  /// partially overwritten rings.
  std::uint32_t ring_capacity = 1024;
};

/// What a dump needs to know about a run besides its events. The
/// executor stamps it into the recorder it writes through: the backend
/// and calibration when a run starts, the outcome when it completes.
struct RunContext {
  /// 0 = fluid backend, 1 = packet backend.
  std::uint8_t backend = 0;
  /// Per-link goodput after protocol overhead, bytes/sec — what one
  /// uncontended transfer should drain at (the analyzer's baseline).
  double effective_bandwidth = 0;
  double send_overhead = 0;
  double recv_overhead = 0;
  /// 0 when the run aborted or stalled before completing.
  double completion_time = 0;
  /// Packet-backend loss counters (0 on fluid runs, stalls and aborts).
  std::int64_t retransmissions = 0;
  std::int64_t segments_lost = 0;
};

/// Per-rank event recorder the executor writes through
/// (ExecutorParams::flight). One Ring per rank; each rank's events are
/// recorded by at most one thread at a time (the deterministic executor
/// is single-threaded; rings tolerate one writer each regardless).
class Recorder {
 public:
  explicit Recorder(std::int32_t rank_count, const RecorderParams& params = {});

  std::int32_t rank_count() const {
    return static_cast<std::int32_t>(rings_.size());
  }
  std::uint32_t ring_capacity() const {
    return rings_.empty() ? 0 : rings_.front().capacity();
  }
  /// Tags >= this are sync tokens, numbered base + (index into
  /// plan.edges): the lowering's convention, mpisim::kSyncTag.
  static constexpr std::int32_t kSyncTagBase = 1 << 20;

  /// Hot path: packs and appends one event to `rank`'s ring.
  void record(std::int32_t rank, EventKind kind, std::int32_t peer,
              std::int32_t tag, std::int64_t bytes, double time, double aux) {
    rings_[static_cast<std::size_t>(rank)].push(
        Event{kind, peer, tag, bytes, time, aux});
  }

  /// Total events recorded across all rings.
  std::uint64_t total_recorded() const;

  /// Snapshot of one rank's ring (see Ring::snapshot).
  std::uint64_t snapshot_rank(std::int32_t rank, std::vector<Event>& out) const;

  /// The context of the last run written through this recorder. The
  /// executor sets it at the start and end of a run, on its own
  /// thread, and flight::snapshot() copies it: unlike the rings, it is
  /// plain data, so read it between runs.
  RunContext run;

 private:
  std::vector<Ring> rings_;
};

}  // namespace aapc::flight
