// Delivery side of the engine's round (docs/PERFORMANCE.md §2–3).
//
// The engine never materializes one Message per recipient. Every queued
// entry — a unicast, a repeat, a multicast or a broadcast — is stored once
// in its sender's outbox together with its destination list ([0, n) for a
// broadcast). InboxArena lays out one round's delivery from those lists:
//
//   arena.begin_round(alive);
//   for every queued entry:      arena.expect(dests);     // pass 1
//   arena.commit();              // chooses the layout, sizes the slots
//   for every unspoofed entry:   arena.deliver(msg, dests);  // pass 2
//   for every receiver:          node.receive(round, arena.view(v));
//
// It alone chooses between two layouts of one flat slot buffer:
//
//  * One shared slot list, when every entry addresses the same list
//    (pointer, then contents) and no node is listed twice. Every node on
//    the list reads the same slots, one pointer per delivered entry, so the
//    round costs O(entries), not O(copies).
//  * Per-node slices otherwise. Every entry fills them through its list,
//    one pointer per (message, alive destination); a broadcast is just the
//    list [0, n).
//
// Either way a node reads its round's traffic in sender order, then send
// order, then list order, as if every copy had been sent on its own.
// Receivers read it through InboxView, one slot-list form for every
// protocol. The buffers persist across rounds and reset lazily through a
// round stamp per node, so nodes a round never addressed cost nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/message.h"

namespace renaming::sim {

/// Read-only view of the messages delivered to one node in one round, in
/// delivery order (sender index ascending, each sender's send order): a
/// list of slots, each pointing at a message. Views are invalidated when
/// the buffers behind them are cleared — i.e. at the end of the receive
/// callback they were passed to.
class InboxView {
 public:
  InboxView() = default;
  InboxView(const Message* const* slots, std::size_t size)
      : slots_(slots), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The slot list the view reads: one for every view of a shared inbox
  /// (docs/PERFORMANCE.md §3), one per node otherwise.
  const void* buffer() const { return slots_; }

  const Message& operator[](std::size_t i) const {
    RENAMING_CHECK(i < size_, "inbox index out of range");
    return *slots_[i];
  }

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    explicit Iterator(const Message* const* slot) : slot_(slot) {}
    reference operator*() const { return **slot_; }
    pointer operator->() const { return *slot_; }
    Iterator& operator++() {
      ++slot_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++slot_;
      return tmp;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    const Message* const* slot_ = nullptr;
  };

  Iterator begin() const { return Iterator(slots_); }
  Iterator end() const { return Iterator(slots_ + size_); }

 private:
  const Message* const* slots_ = nullptr;
  std::size_t size_ = 0;
};

/// One round's delivery layout (see the header comment). Pass 1 hands it
/// every entry's destination list, spoofed entries included, so the slots
/// are an upper bound; pass 2 hands it the unspoofed entries in the same
/// order. Deciding the layout is O(entries) on a shared round: per-node
/// counting starts only at the first list that differs, which counts the
/// identical lists before it in one walk.
class InboxArena {
 public:
  /// Starts a round of the system whose alive set is `alive` (n is its
  /// size). The arena reads `alive` until the round's last view().
  void begin_round(const std::vector<bool>& alive) {
    alive_ = &alive;
    const auto n = static_cast<NodeIndex>(alive.size());
    if (n != n_) {
      n_ = n;
      stamp_.assign(n, 0);
      counts_.clear();
      epoch_ = 0;
    }
    ++epoch_;
    touched_.clear();
    first_ = {};
    repeats_ = 0;
    sliced_ = false;
  }

  /// Pass 1: the destination list of the round's next entry. The list
  /// must stay readable until the round's last deliver().
  void expect(std::span<const NodeIndex> dests) {
    if (!sliced_) {
      if (repeats_ == 0 || same_list(dests, first_)) {
        if (repeats_++ == 0) first_ = dests;
        return;
      }
      slice();
    }
    count(dests, 1);
  }

  /// Ends pass 1: one shared slot list if every entry named first_ and
  /// first_ names no node twice, per-node slices otherwise.
  void commit() {
    shared_ = !sliced_ && listed_once();
    if (!shared_ && !sliced_) slice();
    std::size_t total = repeats_;
    if (!shared_) {
      total = 0;
      for (NodeIndex v : touched_) {
        begin_[v] = total;
        cursor_[v] = total;
        total += counts_[v];
        end_[v] = total;
      }
    }
    filled_ = 0;
    if (slots_.size() < total) slots_.resize(total);
  }

  /// Pass 2: an unspoofed entry and its list, in pass 1's order. A slice
  /// takes it only at alive destinations.
  void deliver(const Message& m, std::span<const NodeIndex> dests) {
    const Message** slots = slots_.data();
    if (shared_) {
      RENAMING_CHECK(filled_ < repeats_,
                     "delivery overflows the shared inbox");
      slots[filled_++] = &m;
      return;
    }
    const std::vector<bool>& alive = *alive_;
    std::size_t* cursor = cursor_.data();
    for (NodeIndex d : dests) {
      if (!alive[d]) continue;
      RENAMING_CHECK(stamp_[d] == epoch_ && cursor[d] < end_[d],
                     "delivery overflows the node's arena slice");
      slots[cursor[d]++] = &m;
    }
  }

  /// What node `v` receives this round: the shared slots if it is listed,
  /// its slice otherwise, empty if the round never addressed it.
  InboxView view(NodeIndex v) const {
    if (stamp_[v] != epoch_) return InboxView();
    if (shared_) return InboxView(slots_.data(), filled_);
    return InboxView(slots_.data() + begin_[v], cursor_[v] - begin_[v]);
  }

  /// Calls f(v) for every alive node with a non-empty inbox this round, in
  /// no particular order (a list's order, then first addressing).
  template <typename F>
  void for_each_addressed(F&& f) const {
    if (shared_ && filled_ == 0) return;
    for (NodeIndex v : touched_) {
      if (shared_ ? (*alive_)[v] : cursor_[v] != begin_[v]) f(v);
    }
  }

 private:
  static bool same_list(std::span<const NodeIndex> a,
                        std::span<const NodeIndex> b) {
    return a.size() == b.size() &&
           (a.data() == b.data() || std::equal(a.begin(), a.end(), b.begin()));
  }

  // Stamps first_'s nodes with the round; false if it names one twice.
  bool listed_once() {
    for (NodeIndex d : first_) {
      RENAMING_CHECK(d < n_, "message addressed outside the system");
      if (stamp_[d] == epoch_) return false;
      stamp_[d] = epoch_;
      touched_.push_back(d);
    }
    return true;
  }

  // Switches the round to per-node slices, counting the entries that
  // named first_ in one walk. The slice arrays are allocated by the first
  // round that needs them: a round that shares touches only the stamps.
  void slice() {
    sliced_ = true;
    ++epoch_;  // forgets listed_once()'s stamps
    touched_.clear();
    if (counts_.size() != n_) {
      counts_.assign(n_, 0);
      begin_.assign(n_, 0);
      end_.assign(n_, 0);
      cursor_.assign(n_, 0);
    }
    count(first_, repeats_);
  }

  // Adds `copies` slots for each destination of `dests`.
  void count(std::span<const NodeIndex> dests, std::size_t copies) {
    for (NodeIndex d : dests) {
      RENAMING_CHECK(d < n_, "message addressed outside the system");
      if (stamp_[d] != epoch_) {
        stamp_[d] = epoch_;
        counts_[d] = 0;
        touched_.push_back(d);
      }
      counts_[d] += static_cast<std::uint32_t>(copies);
    }
  }

  const std::vector<bool>* alive_ = nullptr;
  NodeIndex n_ = 0;
  std::uint64_t epoch_ = 0;
  std::span<const NodeIndex> first_;  // the round's first list
  std::size_t repeats_ = 0;           // entries naming first_ so far
  bool sliced_ = false;               // the round takes per-node slices
  bool shared_ = false;               // commit()'s choice
  std::size_t filled_ = 0;            // shared slots delivered
  std::vector<std::uint32_t> counts_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> stamp_;
  std::vector<NodeIndex> touched_;  // stamped this round, in that order
  std::vector<const Message*> slots_;
};

}  // namespace renaming::sim
