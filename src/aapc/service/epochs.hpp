// Topology-epoch feed: live link churn for the serving path.
//
// The front-end (netd) binds each canonical hash it serves to the
// physical links its elected tree uses. A link event (degrade, failure,
// repair) bumps a global epoch and counts the bound hashes routed over
// the link. Nothing is evicted and nothing recompiles: an answer depends
// only on the request, never on link rates. On the fabrics the wire
// serves, each trunk of the paper schedule is idle, carries one message
// in every phase, or carries its up and down messages in the same
// phases, so a slower trunk slows the held schedule no more than the
// load bound at the new rates forces on any schedule (pinned by
// BottleneckTrafficTest in schedule_property_test). An event that moves
// the tree rebinds a new canonical hash, which keys its own entries
// (docs/SERVICE.md "Topology churn: epochs").
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aapc/topology/topology.hpp"

namespace aapc::service {

class TopologyEpochs {
 public:
  /// One physical link the bound topology forwards over, and where that
  /// link lands in the canonical labeling
  /// (Canonicalization::link_to_canonical composed with the caller's
  /// physical-to-topology link map).
  struct LinkBinding {
    std::int32_t physical_link = -1;
    topology::LinkId canonical_link = -1;
  };

  struct EventResult {
    /// Epoch after this event's bump.
    std::uint64_t epoch = 0;
    /// Bound hashes routed over the event's link (exact: one per bound
    /// hash using the link, zero for everything else).
    std::int64_t invalidated = 0;
  };

  struct Stats {
    std::uint64_t epoch = 0;
    std::int64_t link_events = 0;
    std::int64_t invalidations = 0;
    std::int64_t bound_topologies = 0;
  };

  /// Declares that artifacts cached under `hash` route over `links`.
  /// Each canonical link must lie in [0, canonical_link_count).
  /// Rebinding replaces the previous binding.
  void bind(std::uint64_t hash, const std::vector<LinkBinding>& links,
            std::int32_t canonical_link_count);

  /// Drops `hash` from the feed.
  void unbind(std::uint64_t hash);

  /// A physical link changed rate: `factor` is the residual relative
  /// rate (1.0 restores nominal, 0 means down) and must not be
  /// negative. Bumps the epoch and counts the hashes bound to
  /// `physical_link`.
  EventResult link_event(std::int32_t physical_link, double factor);

  std::uint64_t epoch() const;
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::int64_t link_events_ = 0;
  std::int64_t invalidations_ = 0;
  /// hash -> the physical links it is bound over.
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> bindings_;
  /// physical link -> hashes bound over it (the reverse index).
  std::unordered_map<std::int32_t, std::unordered_set<std::uint64_t>> reverse_;
};

}  // namespace aapc::service
