// Point-to-point posts waiting for a match during one executor run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "aapc/mpisim/program.hpp"

namespace aapc::mpisim {

/// The end of a transfer a post came from. Receives order before sends
/// in PostTable::leftovers().
enum class PostSide : std::uint8_t { kRecv, kSend };

/// Unmatched posts, one FIFO list per ordered (sender, receiver) pair.
/// A new post takes the oldest waiting post of the other side with the
/// same tag, else joins the tail of its pair's list: MPI's
/// non-overtaking order per (sender, receiver, tag). For one pair and
/// tag, waiting posts are all of one side — a post only waits when none
/// of the other side could take it — so the first node with the tag
/// decides.
///
/// Lists live in one node pool with a free list. Memory is two int32
/// per pair (512 KB at 256 ranks) plus one node per post waiting at the
/// same time; a matched post's node serves the next post that waits.
class PostTable {
 public:
  /// Posts still waiting with the same (sender, receiver, tag, side).
  struct Leftover {
    Rank sender;
    Rank receiver;
    Tag tag;
    PostSide side;
    std::int64_t count;
  };

  explicit PostTable(std::int32_t ranks)
      : ranks_(ranks),
        lists_(static_cast<std::size_t>(ranks) *
               static_cast<std::size_t>(ranks)) {}

  /// Offers `request`, posted by the `side` end of sender -> receiver
  /// with `tag`. Returns the request of the oldest waiting post of the
  /// other side with that tag, removed from the table, or -1 after
  /// appending the new post to the pair's list.
  RequestId match_or_wait(Rank sender, Rank receiver, Tag tag, PostSide side,
                          RequestId request) {
    List& list = lists_[static_cast<std::size_t>(sender) *
                            static_cast<std::size_t>(ranks_) +
                        static_cast<std::size_t>(receiver)];
    for (std::int32_t prev = -1, i = list.head; i >= 0;
         prev = i, i = node(i).next) {
      Node& waiting = node(i);
      if (waiting.tag != tag) continue;
      if (waiting.side == side) break;
      if (prev < 0) {
        list.head = waiting.next;
      } else {
        node(prev).next = waiting.next;
      }
      if (list.tail == i) list.tail = prev;
      waiting.next = free_;
      free_ = i;
      --waiting_;
      return waiting.request;
    }
    std::int32_t i = free_;
    if (i >= 0) {
      free_ = node(i).next;
      node(i) = Node{tag, request, -1, side};
    } else {
      i = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back(Node{tag, request, -1, side});
    }
    if (list.tail < 0) {
      list.head = i;
    } else {
      node(list.tail).next = i;
    }
    list.tail = i;
    ++waiting_;
    return -1;
  }

  /// Posts waiting now.
  std::int64_t waiting() const { return waiting_; }

  /// Nodes in the pool: the most posts that ever waited at once.
  std::int64_t nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }

  /// Every waiting post, grouped by (sender, receiver, tag, side) and
  /// sorted numerically by that key.
  std::vector<Leftover> leftovers() const {
    std::vector<Leftover> out;
    const auto ranks = static_cast<std::size_t>(ranks_);
    for (std::size_t pair = 0; pair < lists_.size(); ++pair) {
      for (std::int32_t i = lists_[pair].head; i >= 0; i = node(i).next) {
        out.push_back({static_cast<Rank>(pair / ranks),
                       static_cast<Rank>(pair % ranks), node(i).tag,
                       node(i).side, 1});
      }
    }
    const auto key = [](const Leftover& l) {
      return std::tie(l.sender, l.receiver, l.tag, l.side);
    };
    std::sort(out.begin(), out.end(), [&](const Leftover& a,
                                          const Leftover& b) {
      return key(a) < key(b);
    });
    std::vector<Leftover> grouped;
    for (const Leftover& l : out) {
      if (!grouped.empty() && key(grouped.back()) == key(l)) {
        ++grouped.back().count;
      } else {
        grouped.push_back(l);
      }
    }
    return grouped;
  }

 private:
  struct List {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };
  struct Node {
    Tag tag;
    RequestId request;
    std::int32_t next;  // next node of the list or of the free list; -1 ends
    PostSide side;
  };

  Node& node(std::int32_t i) { return nodes_[static_cast<std::size_t>(i)]; }
  const Node& node(std::int32_t i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }

  std::int32_t ranks_;
  std::vector<List> lists_;
  std::vector<Node> nodes_;
  std::int32_t free_ = -1;
  std::int64_t waiting_ = 0;
};

}  // namespace aapc::mpisim
