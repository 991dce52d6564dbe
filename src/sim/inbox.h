// Delivery-side buffers for the engine hot path (docs/PERFORMANCE.md).
//
// The engine never materializes one Message per recipient. A broadcast is
// stored once in its sender's outbox; delivery appends a *pointer* to that
// single message into each recipient's slice of a flat, offset-indexed
// arena. Receivers read their round's traffic through InboxView, which
// iterates either a contiguous Message array (unit tests drive nodes
// directly with a std::vector<Message>) or an arena slice of pointers (the
// engine path) — the protocol code is identical either way.
//
// The arena is a persistent round buffer: it is sized once and reset per
// round, so the steady-state delivery cost is one pointer store per
// (message, recipient) pair with no allocation at all.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/message.h"

namespace renaming::sim {

/// Read-only view of the messages delivered to one node in one round, in
/// delivery order (sender index ascending, each sender's send order). Views
/// are invalidated when the buffers behind them are cleared — i.e. at the
/// end of the receive callback they were passed to.
class InboxView {
 public:
  InboxView() = default;
  /// Contiguous messages (direct mode, used by unit tests and drivers).
  InboxView(const Message* msgs, std::size_t size)
      : direct_(msgs), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  InboxView(std::span<const Message> msgs)
      : direct_(msgs.data()), size_(msgs.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  InboxView(const std::vector<Message>& msgs)
      : direct_(msgs.data()), size_(msgs.size()) {}
  /// Arena slice (indirect mode, the engine delivery path).
  InboxView(const Message* const* slots, std::size_t size)
      : slots_(slots), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The buffer the view reads: one for every view of a shared inbox
  /// (docs/PERFORMANCE.md §3), one per node on the arena path.
  const void* buffer() const {
    return slots_ != nullptr ? static_cast<const void*>(slots_) : direct_;
  }

  const Message& operator[](std::size_t i) const {
    RENAMING_CHECK(i < size_, "inbox index out of range");
    return get(i);
  }

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    Iterator(const InboxView& view, std::size_t i) : view_(&view), i_(i) {}
    reference operator*() const { return view_->get(i_); }
    pointer operator->() const { return &view_->get(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    const InboxView* view_;
    std::size_t i_;
  };

  Iterator begin() const { return Iterator(*this, 0); }
  Iterator end() const { return Iterator(*this, size_); }

 private:
  const Message& get(std::size_t i) const {
    return slots_ != nullptr ? *slots_[i] : direct_[i];
  }

  const Message* const* slots_ = nullptr;
  const Message* direct_ = nullptr;
  std::size_t size_ = 0;
};

/// Flat, offset-indexed per-round delivery buffer: one slice of Message
/// pointers per node, all in a single backing vector that is reused across
/// rounds. Usage per round:
///
///   arena.begin_round(n);
///   for every queued entry:   expect_unicast(dest) / expect_broadcast();
///   arena.commit();           // offsets from the (upper-bound) counts
///   for every delivery:       arena.deliver(dest, msg);
///   for every node:           node.receive(round, arena.view(v));
///
/// The expectation pass only has to be an upper bound per node (spoofed or
/// crashed-destination traffic may end up undelivered); slices never
/// overlap and view(v) reports the slots actually filled.
///
/// The reset is lazy (the idle fast path, docs/PERFORMANCE.md): a round
/// stamp per node replaces the O(n) re-zeroing of the old implementation,
/// so a unicast-only round costs O(touched destinations), not O(n). Nodes
/// the round never addressed read an empty view through a stale stamp;
/// rounds containing any broadcast slice every node as before.
class InboxArena {
 public:
  void begin_round(NodeIndex n) {
    if (n != n_) {
      n_ = n;
      unicasts_.assign(n, 0);
      begin_.assign(n, 0);
      end_.assign(n, 0);
      cursor_.assign(n, 0);
      stamp_.assign(n, 0);
      epoch_ = 0;
    }
    ++epoch_;
    broadcasts_ = 0;
    touched_.clear();
  }

  void expect_unicast(NodeIndex dest) {
    RENAMING_CHECK(dest < n_, "message addressed outside the system");
    if (stamp_[dest] != epoch_) {
      stamp_[dest] = epoch_;
      unicasts_[dest] = 0;
      touched_.push_back(dest);
    }
    ++unicasts_[dest];
  }
  void expect_broadcast() { ++broadcasts_; }

  void commit() {
    std::size_t total = 0;
    if (broadcasts_ == 0) {
      // Unicast-only round: only the touched destinations get slices (in
      // expectation order; slices are disjoint, so their relative layout
      // is unobservable).
      for (NodeIndex v : touched_) {
        begin_[v] = total;
        cursor_[v] = total;
        total += unicasts_[v];
        end_[v] = total;
      }
    } else {
      // A broadcast addresses everyone: every node gets a slice.
      touched_.clear();
      for (NodeIndex v = 0; v < n_; ++v) {
        if (stamp_[v] != epoch_) {
          stamp_[v] = epoch_;
          unicasts_[v] = 0;
        }
        touched_.push_back(v);
        begin_[v] = total;
        cursor_[v] = total;
        total += unicasts_[v] + broadcasts_;
        end_[v] = total;
      }
    }
    if (slots_.size() < total) slots_.resize(total);
  }

  void deliver(NodeIndex dest, const Message& m) {
    RENAMING_CHECK(stamp_[dest] == epoch_ && cursor_[dest] < end_[dest],
                   "delivery overflows the node's arena slice");
    slots_[cursor_[dest]++] = &m;
  }

  /// Bulk form of deliver() for the broadcast fast path: appends `m` to
  /// every destination in `dests` (which the engine keeps in ascending
  /// order, so delivery order matches n individual deliver() calls).
  void deliver_broadcast(const Message& m, const std::vector<NodeIndex>& dests) {
    const Message** slots = slots_.data();
    std::size_t* cursor = cursor_.data();
    for (NodeIndex d : dests) {
      RENAMING_CHECK(stamp_[d] == epoch_ && cursor[d] < end_[d],
                     "delivery overflows the node's arena slice");
      slots[cursor[d]++] = &m;
    }
  }

  InboxView view(NodeIndex dest) const {
    if (stamp_[dest] != epoch_) return InboxView();
    return InboxView(slots_.data() + begin_[dest],
                     cursor_[dest] - begin_[dest]);
  }

  /// Destinations holding a slice this round (every node on broadcast
  /// rounds). The engine unions this with the senders to know who must run
  /// receive() without scanning all n nodes.
  const std::vector<NodeIndex>& touched() const { return touched_; }

 private:
  NodeIndex n_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t broadcasts_ = 0;
  std::vector<std::uint32_t> unicasts_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> stamp_;
  std::vector<NodeIndex> touched_;
  std::vector<const Message*> slots_;
};

}  // namespace renaming::sim
