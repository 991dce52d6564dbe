// Lazily allocated table of per-node outboxes (docs/PERFORMANCE.md §10).
//
// Keeps an O(n) slot index (4 bytes/node) but allocates Outbox objects on
// first send activity and recycles them through a free list when their node
// goes quiet, so the number of live outboxes tracks the active set, not n —
// a run where only a committee of O(log N) nodes ever sends never builds
// O(n) Outbox objects.
//
// Not thread-safe: ensure()/release() mutate shared state and must only be
// called from the engine's serial sections (the shard-parallel send phase
// only calls get() on outboxes ensured beforehand).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/node.h"

namespace renaming::sim {

class OutboxTable {
 public:
  /// Re-initializes the table for a system of `n` nodes: only the slot
  /// index is built; outboxes come on first ensure().
  void reset(NodeIndex n) {
    n_ = n;
    pool_.clear();
    free_.clear();
    slots_.assign(n, kNoSlot);
  }

  NodeIndex size() const { return n_; }

  /// Number of currently allocated outboxes. The engine's memory claim is
  /// that this tracks the active set.
  std::size_t live() const { return pool_.size() - free_.size(); }

  bool has(NodeIndex v) const {
    RENAMING_CHECK(v < n_, "outbox index out of range");
    return slots_[v] != kNoSlot;
  }

  /// Returns node v's outbox, allocating (or recycling) one if it has none.
  /// Serial sections only.
  Outbox& ensure(NodeIndex v) {
    RENAMING_CHECK(v < n_, "outbox index out of range");
    std::uint32_t slot = slots_[v];
    if (slot == kNoSlot) {
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
        pool_[slot]->rebind(v, n_);
      } else {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(std::make_unique<Outbox>(v, n_));
      }
      slots_[v] = slot;
    }
    return *pool_[slot];
  }

  /// Returns node v's outbox, which must already exist. Safe from parallel
  /// shards as long as distinct shards touch distinct v.
  Outbox& get(NodeIndex v) {
    RENAMING_CHECK(has(v), "get() of an unallocated outbox");
    return *pool_[slots_[v]];
  }

  /// Read-only view for adversaries: nodes without an allocated outbox
  /// present as an empty one (only size()/entries() are meaningful on the
  /// sentinel — it is not bound to v).
  const Outbox& peek(NodeIndex v) const {
    RENAMING_CHECK(v < n_, "outbox index out of range");
    const std::uint32_t slot = slots_[v];
    if (slot == kNoSlot) {
      static const Outbox kEmpty(0, 0);
      return kEmpty;
    }
    return *pool_[slot];
  }

  /// Returns node v's (cleared) outbox to the free list so another node can
  /// reuse it. Serial sections only.
  void release(NodeIndex v) {
    RENAMING_CHECK(v < n_, "outbox index out of range");
    if (slots_[v] == kNoSlot) return;
    RENAMING_CHECK(pool_[slots_[v]]->entries().empty(),
                   "release of a non-empty outbox");
    free_.push_back(slots_[v]);
    slots_[v] = kNoSlot;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  NodeIndex n_ = 0;
  /// slots_[v] indexes pool_, or kNoSlot when unallocated.
  /// unique_ptr keeps outbox addresses stable across pool growth (the
  /// engine holds references across a round).
  std::vector<std::uint32_t> slots_;
  std::vector<std::unique_ptr<Outbox>> pool_;
  std::vector<std::uint32_t> free_;
};

}  // namespace renaming::sim
