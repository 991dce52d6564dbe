// Protocol-node interface and per-round outbox.
//
// A protocol implements Node once; the same implementation runs unchanged
// whether the adversary crashes nobody, everybody, or replaces a third of
// the system with Byzantine strategies. The engine drives two phases per
// synchronous round, matching the standard model (e.g. Lynch, Ch. 2):
//
//   1. send(round, outbox)    — queue messages over the node's n links
//   2. receive(round, inbox)  — process everything delivered this round
//
// Nodes never see simulator internals; everything they learn arrives
// through the inbox.
#pragma once

#include <algorithm>
#include <cstdint>
#include <forward_list>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/inbox.h"
#include "sim/message.h"

namespace renaming::sim {

/// Messages queued by one node during one round's send phase.
///
/// Broadcast/multicast fast path (docs/PERFORMANCE.md): broadcast() records
/// ONE compressed entry whose destination is the kBroadcast sentinel
/// instead of n per-recipient copies, and multicast() records one entry
/// plus a compact destination list (the committee sub-protocols address the
/// same O(log N)-sized member set every round, so per-member Message copies
/// would dominate their cost). send() additionally coalesces consecutive
/// sends of an identical payload into ONE stored message plus a destination
/// list (the kRepeat sentinel): a node reporting the same status to every
/// committee member costs O(#dests) NodeIndex entries, not O(#dests)
/// Message copies — at n = 2^20 that is the difference between megabytes
/// and gigabytes of queued state. Unlike kMulticast, a kRepeat entry keeps
/// *unicast fidelity*: the engine accounts, journals and traces every copy
/// exactly as if the individual send() calls had been queued, so observable
/// bytes are unchanged (docs/PERFORMANCE.md §10). The engine delivers all
/// compressed forms by reference. There is one outbox form: per-recipient
/// semantics (size(), CrashOrder::keep, the Byzantine strategies'
/// tampering) use for_each_copy()'s index space, every copy in send order,
/// a broadcast's to 0..n-1. The crash cut, keep(), queues the kept copies
/// again by send()'s coalescing rule, so a cut broadcast or multicast
/// becomes a repeat.
///
/// Blob ownership (docs/PERFORMANCE.md "Message layout"): own_blob() keeps
/// a bulk payload alive until this outbox's next clear(). The engine clears
/// an outbox only after the round's receive phase, so a blob a message
/// points at is readable by every recipient for the whole round, and by
/// nobody after it.
class Outbox {
 public:
  /// Destination sentinel of a compressed broadcast entry: the message goes
  /// to every node in [0, n), including the sender.
  static constexpr NodeIndex kBroadcast = kNoNode;
  /// Destination sentinel of a compressed multicast entry: the k-th such
  /// entry (in send order) goes to multicast_dests(k), in list order.
  static constexpr NodeIndex kMulticast = kNoNode - 1;
  /// Destination sentinel of a coalesced repeated-unicast entry: identical
  /// payload sent to each destination in its multicast_dests list, in send
  /// order, with per-copy (unicast) accounting in traces/journal/stats.
  static constexpr NodeIndex kRepeat = kNoNode - 2;

  explicit Outbox(NodeIndex self, NodeIndex n) : self_(self), n_(n) {}

  /// Send `m` over the link to `dest`. Honest senders leave claimed_sender
  /// untouched; the engine stamps both fields.
  void send(NodeIndex dest, Message m) {
    RENAMING_CHECK(dest < n_, "send to a link outside the system");
    RENAMING_CHECK(m.bits > 0, "every message must declare a wire size");
    stamp(m);
    if (!join_last(queued_.size(), dest, m)) queued_.emplace_back(dest, m);
  }

  /// Send over the link to `dest` a message that `fill(Message&)` writes
  /// straight into its queue slot (wire::send), so no temporary Message is
  /// built and copied. Queues exactly what send(dest, m) of the filled
  /// message would, coalescing included. A slot that coalescing hands back
  /// may still have grown the queue, so a payload meant for many links is
  /// better built once and queued with send().
  template <typename Fill>
  void send_in_place(NodeIndex dest, Fill&& fill) {
    RENAMING_CHECK(dest < n_, "send to a link outside the system");
    Message& m = queued_.emplace_back(dest, Message{}).second;
    fill(m);
    RENAMING_CHECK(m.bits > 0, "every message must declare a wire size");
    stamp(m);
    if (join_last(queued_.size() - 1, dest, m)) queued_.pop_back();
  }

  /// Send one copy of `m` to every destination in `dests`, in list order.
  /// Byte-equivalent to the corresponding send() loop but stores the
  /// message once; costs O(|dests|) NodeIndex copies instead of O(|dests|)
  /// Message copies.
  void multicast(std::span<const NodeIndex> dests, Message m) {
    RENAMING_CHECK(m.bits > 0, "every message must declare a wire size");
    stamp(m);
    mspans_.emplace_back(static_cast<std::uint32_t>(mdests_.size()),
                         static_cast<std::uint32_t>(dests.size()));
    for (NodeIndex d : dests) {
      RENAMING_CHECK(d < n_, "multicast to a link outside the system");
      mdests_.push_back(d);
    }
    queued_.emplace_back(kMulticast, std::move(m));
  }

  /// Broadcast to all n nodes (including self; the paper's algorithms
  /// explicitly use all n links, e.g. committee announcements). Costs O(1):
  /// one compressed entry, not n copies.
  void broadcast(Message m) {
    RENAMING_CHECK(m.bits > 0, "every message must declare a wire size");
    stamp(m);
    queued_.emplace_back(kBroadcast, std::move(m));
  }

  /// Makes room for `entries` more queued entries in one allocation: a
  /// node about to queue many distinct unicasts grows the queue once
  /// instead of by doubling, which would hold the old and the new array
  /// at once.
  void reserve(std::size_t entries) {
    queued_.reserve(queued_.size() + entries);
  }

  /// Takes ownership of a bulk payload until the next clear() and returns
  /// the pointer a Message::blob carries (wire::make_blob_message). The
  /// address stays stable while further blobs are added.
  const std::vector<std::uint64_t>* own_blob(
      std::vector<std::uint64_t> payload) {
    return &blobs_.emplace_front(std::move(payload));
  }

  /// Number of *logical* (per-recipient) messages queued: a broadcast entry
  /// counts n, a multicast or repeat entry its destination count: the index
  /// space of for_each_copy(), keep() and CrashOrder::keep.
  std::size_t size() const {
    std::size_t total = 0;
    std::size_t mc = 0;
    for (const auto& entry : queued_) {
      if (entry.first == kBroadcast) {
        total += n_;
      } else if (entry.first == kMulticast || entry.first == kRepeat) {
        total += mspans_[mc++].second;
      } else {
        ++total;
      }
    }
    return total;
  }

  NodeIndex self() const { return self_; }
  NodeIndex fanout() const { return n_; }

  /// Re-targets a pooled Outbox at another node (the engine recycles a
  /// small pool of Outbox objects across the whole system instead of
  /// keeping n of them alive). The outbox must be clear().
  void rebind(NodeIndex self, NodeIndex n) {
    RENAMING_CHECK(queued_.empty(), "rebind of a non-empty outbox");
    self_ = self;
    n_ = n;
  }

  /// Calls f(dest, message) for every per-recipient copy, in index order:
  /// entries in send order, a broadcast's copies to 0..n-1, a multicast's
  /// or repeat's in list order.
  template <typename F>
  void for_each_copy(F&& f) const {
    std::size_t mc = 0;
    for (const auto& [dest, msg] : queued_) {
      if (dest == kBroadcast) {
        for (NodeIndex d = 0; d < n_; ++d) f(d, msg);
      } else if (dest == kMulticast || dest == kRepeat) {
        for (NodeIndex d : multicast_dests(mc++)) f(d, msg);
      } else {
        f(dest, msg);
      }
    }
  }

  /// The crash cut: keeps the copies at the listed indices (any order; an
  /// index from size() on, or one listed twice, aborts), queued again by
  /// send()'s coalescing rule: a cut broadcast or multicast becomes a
  /// repeat, accounted per copy. Owned blobs stay until clear().
  void keep(std::vector<std::uint32_t> indices) {
    std::sort(indices.begin(), indices.end());
    const std::size_t total = size();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      RENAMING_CHECK(indices[i] < total,
                     "crash order keeps a message that was never queued");
      RENAMING_CHECK(i == 0 || indices[i - 1] < indices[i],
                     "crash order keeps a message twice");
    }
    Outbox cut(self_, n_);
    std::swap(*this, cut);    // cut takes the entries,
    blobs_.swap(cut.blobs_);  // this keeps the blobs they point at
    std::size_t next = 0;
    std::uint32_t index = 0;
    cut.for_each_copy([&](NodeIndex dest, const Message& m) {
      if (next < indices.size() && indices[next] == index) {
        if (!join_last(queued_.size(), dest, m)) queued_.emplace_back(dest, m);
        ++next;
      }
      ++index;
    });
  }

  /// Drops all queued entries and owned blobs but keeps the entry
  /// allocation: the engine reuses one Outbox per node across all rounds.
  void clear() {
    queued_.clear();
    mdests_.clear();
    mspans_.clear();
    blobs_.clear();
  }

  /// Engine access: the queued (dest, message) entries, in send order. A
  /// dest of kBroadcast, kMulticast or kRepeat marks a compressed entry; a
  /// unicast entry holds a real destination (per copy: for_each_copy()).
  std::vector<std::pair<NodeIndex, Message>>& entries() { return queued_; }
  const std::vector<std::pair<NodeIndex, Message>>& entries() const {
    return queued_;
  }

  /// Destinations of the k-th kMulticast/kRepeat entry (counted together,
  /// in send order), in delivery order.
  std::span<const NodeIndex> multicast_dests(std::size_t k) const {
    RENAMING_CHECK(k < mspans_.size(), "multicast entry index out of range");
    const auto [off, len] = mspans_[k];
    return {mdests_.data() + off, len};
  }

 private:
  /// Engine-side origin fields: the true sender always, the claimed one
  /// only where the sender left it unset.
  void stamp(Message& m) const {
    if (m.claimed_sender == kNoNode) m.claimed_sender = self_;
    m.sender = self_;
  }

  /// The one coalescing rule: a unicast of `m` to `dest`, sent right after
  /// the entry queued_[end - 1], joins that entry when their payloads are
  /// identical and returns true. The entry is either a repeat (whose list
  /// ends mdests_), which gains one destination, or a unicast, which
  /// becomes a two-destination repeat. Only that one entry is a candidate,
  /// so send order is preserved exactly and the check is O(nwords).
  bool join_last(std::size_t end, NodeIndex dest, const Message& m) {
    if (end == 0) return false;
    auto& [last_dest, last_msg] = queued_[end - 1];
    if (last_dest == kRepeat &&
        mspans_.back().first + mspans_.back().second == mdests_.size() &&
        same_payload(last_msg, m)) {
      mdests_.push_back(dest);
      ++mspans_.back().second;
      return true;
    }
    if (last_dest < n_ && same_payload(last_msg, m)) {
      mspans_.emplace_back(static_cast<std::uint32_t>(mdests_.size()),
                           std::uint32_t{2});
      mdests_.push_back(last_dest);
      mdests_.push_back(dest);
      last_dest = kRepeat;
      return true;
    }
    return false;
  }

  /// True when the two messages are indistinguishable on the wire: same
  /// origin claim, kind, declared bits, inline words and blob address.
  /// The first word (an id, a rank) tells most distinct payloads apart,
  /// so it is looked at first.
  static bool same_payload(const Message& a, const Message& b) {
    if (a.nwords > 0 && a.w[0] != b.w[0]) return false;
    if (a.kind != b.kind || a.bits != b.bits || a.nwords != b.nwords ||
        a.claimed_sender != b.claimed_sender || a.blob != b.blob) {
      return false;
    }
    for (std::size_t i = 0; i < a.nwords; ++i) {
      if (a.w[i] != b.w[i]) return false;
    }
    return true;
  }

  NodeIndex self_;
  NodeIndex n_;
  std::vector<std::pair<NodeIndex, Message>> queued_;
  /// Flat destination-list storage for kMulticast/kRepeat entries:
  /// mspans_[k] is the (offset, length) of the k-th such entry's slice of
  /// mdests_.
  std::vector<NodeIndex> mdests_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mspans_;
  /// Payloads behind the queued messages' blob pointers (own_blob()). A
  /// node list: stable addresses, and one pointer of Outbox footprint for
  /// the many outboxes that never carry a blob.
  std::forward_list<std::vector<std::uint64_t>> blobs_;
};

class Node {
 public:
  virtual ~Node() = default;

  /// First phase of each round: queue outgoing messages.
  virtual void send(Round round, Outbox& out) = 0;

  /// Second phase: consume the messages delivered this round. The view is
  /// only valid for the duration of the call.
  virtual void receive(Round round, InboxView inbox) = 0;

  /// True once the node has completed the protocol (used by the engine to
  /// stop early; fixed-round protocols may simply return false until their
  /// final round).
  virtual bool done() const = 0;

  /// Quiescence hint for the engine's idle fast path (docs/PERFORMANCE.md).
  /// A node returning true promises, until its next receive() of a
  /// non-empty inbox:
  ///   1. its send() would queue nothing, and
  ///   2. a receive() with an *empty* inbox would leave every externally
  ///      observable behaviour (future sends, done(), idle()) unchanged.
  /// The engine may then skip both callbacks while no traffic is addressed
  /// to the node, which turns a round where only a committee is active
  /// from O(n) into O(active). The default is false (never skipped), which
  /// is always safe; nodes whose protocol has a terminal wait state (e.g.
  /// ByzNode waiting for NEW messages) override it. Violating the promise
  /// does not corrupt the engine, but makes executions depend on the
  /// optimization — the equivalence tests pin that they do not.
  virtual bool idle() const { return false; }
};

}  // namespace renaming::sim
