// Contiguous shard partition of an index range (docs/PERFORMANCE.md §9),
// and the shard-local fold every recorder a node callback writes goes
// through.
//
// The engine shards *positions of an ascending node list*, never the nodes
// themselves: shard s owns a contiguous slice, shards are merged in fixed
// order 0..K-1, and the concatenation of all slices is the original list.
// That is the whole determinism argument — any per-shard results replayed
// in shard order are byte-identical to the serial sweep, regardless of
// which thread ran which shard.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace renaming::sim::parallel {

class Partition {
 public:
  /// Splits [0, count) into `shards` contiguous ranges whose sizes differ
  /// by at most one (the first count % shards ranges are the longer ones).
  Partition(std::size_t count, unsigned shards)
      : count_(count), shards_(shards) {
    RENAMING_CHECK(shards >= 1, "a partition needs at least one shard");
  }

  unsigned shards() const { return shards_; }
  std::size_t count() const { return count_; }

  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;  ///< exclusive
  };

  Range range(unsigned shard) const {
    RENAMING_CHECK(shard < shards_, "shard index out of range");
    const std::size_t base = count_ / shards_;
    const std::size_t rem = count_ % shards_;
    const std::size_t extra = shard < rem ? shard : rem;
    Range r;
    r.begin = shard * base + extra;
    r.end = r.begin + base + (shard < rem ? 1 : 0);
    return r;
  }

 private:
  std::size_t count_;
  unsigned shards_;
};

/// Which shard of the engine's running fan-out runs a node's callback —
/// the one way node code learns its shard. Node code already names its
/// node in every recorder call, and shards are contiguous slices of an
/// ascending list, so the shard is the number of later shards' first nodes
/// at or below it. The engine writes the map between fan-outs only; inside
/// one every shard reads it, so no lock is needed.
class ShardMap {
 public:
  /// `capacity` bounds the shard count of every fan-out of the run.
  explicit ShardMap(unsigned capacity = 1) : capacity_(capacity) {
    RENAMING_CHECK(capacity >= 1, "a shard map needs at least one shard");
    firsts_.reserve(capacity - 1);
  }

  unsigned capacity() const { return capacity_; }
  /// Shard count of the running fan-out, or of the last one after it.
  unsigned shards() const { return shards_; }
  /// True while a fan-out runs node callbacks.
  bool running() const { return running_; }

  /// The shard running node `v`'s callback; 0 outside a fan-out. `v` must
  /// be a node of the running list.
  unsigned shard_of(NodeIndex v) const {
    return static_cast<unsigned>(
        std::upper_bound(firsts_.begin(), firsts_.end(), v) - firsts_.begin());
  }

  /// Engine side: a fan-out of `part` over the ascending `list` begins.
  void open(std::span<const NodeIndex> list, const Partition& part) {
    RENAMING_CHECK(part.shards() <= capacity_, "fan-out exceeds the map");
    firsts_.clear();
    for (unsigned s = 1; s < part.shards(); ++s) {
      firsts_.push_back(list[part.range(s).begin]);
    }
    shards_ = part.shards();
    running_ = true;
  }

  /// Engine side: the fan-out joined; the caller folds its slots next.
  void close() {
    firsts_.clear();
    running_ = false;
  }

 private:
  unsigned capacity_;
  unsigned shards_ = 1;
  bool running_ = false;
  std::vector<NodeIndex> firsts_;  ///< first node of shards 1..K-1
};

/// One slot per shard of what a fan-out's callbacks write: the engine's
/// own scratch and every recorder node code writes. Inside a fan-out a
/// callback for node v writes only at(v); after the join the engine folds
/// the slots in shard order 0..K-1, which is the serial call order.
/// Unbound (no engine), it is one slot that never runs.
template <typename Slot>
class ShardSlots {
 public:
  ShardSlots() : slots_(1) {}

  /// Follows `map`'s fan-outs with one slot per shard it can run; null
  /// detaches (the engine is gone).
  void bind(const ShardMap* map) {
    map_ = map;
    slots_.resize(map != nullptr ? map->capacity() : 1);
  }

  /// True inside a fan-out: writes go to at(v), and the fold delivers them.
  bool running() const { return map_ != nullptr && map_->running(); }

  /// The slot of the shard running node `v`'s callback (slot 0 outside a
  /// fan-out).
  Slot& at(NodeIndex v) {
    return slots_[map_ != nullptr ? map_->shard_of(v) : 0];
  }
  /// Shard `shard`'s slot, for the engine's own shard body.
  Slot& operator[](std::size_t shard) { return slots_[shard]; }

  /// The fold: fn(shard, slot) for each slot of the last fan-out, in
  /// shard order — the one place that order is written.
  template <typename Fn>
  void fold(Fn&& fn) {
    const unsigned k = map_ != nullptr ? map_->shards() : 1;
    for (unsigned s = 0; s < k; ++s) fn(s, slots_[s]);
  }

 private:
  const ShardMap* map_ = nullptr;
  std::vector<Slot> slots_;
};

}  // namespace renaming::sim::parallel
