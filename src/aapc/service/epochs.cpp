#include "aapc/service/epochs.hpp"

#include "aapc/common/error.hpp"

namespace aapc::service {

namespace {

/// Removes `hash` from the reverse index of every link in `links`.
void erase_reverse(
    std::unordered_map<std::int32_t, std::unordered_set<std::uint64_t>>&
        reverse,
    std::uint64_t hash, const std::vector<std::int32_t>& links) {
  for (const std::int32_t link : links) {
    const auto rev = reverse.find(link);
    if (rev != reverse.end()) {
      rev->second.erase(hash);
      if (rev->second.empty()) reverse.erase(rev);
    }
  }
}

}  // namespace

void TopologyEpochs::bind(std::uint64_t hash,
                          const std::vector<LinkBinding>& links,
                          std::int32_t canonical_link_count) {
  AAPC_REQUIRE(canonical_link_count >= 0, "negative canonical link count");
  std::vector<std::int32_t> physical;
  physical.reserve(links.size());
  for (const LinkBinding& b : links) {
    AAPC_REQUIRE(b.physical_link >= 0,
                 "binding with negative physical link " << b.physical_link);
    AAPC_REQUIRE(b.canonical_link >= 0 &&
                     b.canonical_link < canonical_link_count,
                 "canonical link " << b.canonical_link
                                   << " out of range (count "
                                   << canonical_link_count << ")");
    physical.push_back(b.physical_link);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto old = bindings_.find(hash);
  if (old != bindings_.end()) erase_reverse(reverse_, hash, old->second);
  for (const std::int32_t link : physical) reverse_[link].insert(hash);
  bindings_[hash] = std::move(physical);
}

void TopologyEpochs::unbind(std::uint64_t hash) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = bindings_.find(hash);
  if (it == bindings_.end()) return;
  erase_reverse(reverse_, hash, it->second);
  bindings_.erase(it);
}

TopologyEpochs::EventResult TopologyEpochs::link_event(
    std::int32_t physical_link, double factor) {
  AAPC_REQUIRE(physical_link >= 0,
               "negative physical link " << physical_link);
  AAPC_REQUIRE(factor >= 0, "negative rate factor " << factor);
  const std::lock_guard<std::mutex> lock(mutex_);
  EventResult result;
  result.epoch = ++epoch_;
  ++link_events_;
  const auto rev = reverse_.find(physical_link);
  if (rev != reverse_.end()) {
    result.invalidated = static_cast<std::int64_t>(rev->second.size());
  }
  invalidations_ += result.invalidated;
  return result;
}

std::uint64_t TopologyEpochs::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

TopologyEpochs::Stats TopologyEpochs::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.epoch = epoch_;
  stats.link_events = link_events_;
  stats.invalidations = invalidations_;
  stats.bound_topologies = static_cast<std::int64_t>(bindings_.size());
  return stats;
}

}  // namespace aapc::service
