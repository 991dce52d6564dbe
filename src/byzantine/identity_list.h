// The identity list L_v of the Byzantine-resilient algorithm (Section 3.1).
//
// Conceptually L_v is a length-N bit vector with L_v[i] = 1 iff identity i
// was received by committee member v. Materialising N bits per member
// would cost Theta(N) memory, so this class stores the equivalent sparse
// form as a bucketed ordered container: B-tree-style leaves of a few
// hundred sorted ids, each carrying a SegmentSummary aggregate
// <fingerprint, count>.
//
// A member's round-2 list is bulk-loaded: assign_sorted() cuts the sorted
// ids into full leaves and sums each leaf's m61 aggregate once. Afterwards
// the list changes only through set() after singleton consensus, and that
// update is incremental — m61 addition is an invertible group operation
// (Fact 3.2), so a single-bit flip updates a leaf aggregate with one
// add/sub instead of a rebuild. The set-hash does not depend on the order
// ids were added, so a bulk-loaded list and an insert-built one with the
// same contents summarize identically. insert/set/rank cost
// O(log(k/B) + B) and summarize costs O(log(k/B) + buckets overlapped + B)
// for k stored ids and bucket capacity B. Tests cross-check every
// operation against the dense BitVec + the reference fingerprints in
// src/hashing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interval.h"
#include "hashing/fingerprint.h"
#include "hashing/shared_random.h"

namespace renaming::byzantine {

struct SegmentSummary {
  std::uint64_t fingerprint = 0;  ///< set-hash of the segment contents
  std::uint64_t count = 0;        ///< number of ones (identities present)
  friend bool operator==(const SegmentSummary&, const SegmentSummary&) = default;
};

class IdentityList {
 public:
  /// Leaves split once they exceed this many ids. A few hundred keeps the
  /// per-operation binary search short while the aggregates make segment
  /// summaries skip whole leaves. Tests pass a tiny capacity to force
  /// splits on small inputs.
  static constexpr std::size_t kDefaultBucketCapacity = 256;

  /// `namespace_size` is N; coefficients come from the shared beacon so
  /// that all correct members evaluate the same hash function (Fact 3.2).
  /// The list keeps its own copy of the beacon (one seed).
  IdentityList(std::uint64_t namespace_size,
               const hashing::SharedRandomness& beacon,
               std::size_t bucket_capacity = kDefaultBucketCapacity);

  /// Replaces the contents with `ids`, which must be strictly ascending
  /// and inside [1, N]: fills leaves to capacity and computes each leaf's
  /// aggregate once. O(k) for k ids, against O(k (log(k/B) + B)) for k
  /// insert() calls.
  void assign_sorted(std::span<const std::uint64_t> ids);

  /// Record that identity `id` (1-based, <= N) is present. Idempotent.
  void insert(std::uint64_t id);

  /// Force position `id` to `present` (used after singleton consensus).
  void set(std::uint64_t id, bool present);

  /// <fingerprint, popcount> of segment [j.lo, j.hi] (1-based inclusive).
  SegmentSummary summarize(const Interval& j) const;

  /// Number of ones strictly before position `id`.
  std::uint64_t rank(std::uint64_t id) const;

  /// Calls f(id) for every present identity within [j.lo, j.hi],
  /// ascending, reading the leaves in place: the distribution loop walks a
  /// segment without copying it.
  template <typename F>
  void for_each_id_in(const Interval& j, F&& f) const {
    for (std::size_t b = bucket_for(j.lo); b < buckets_.size(); ++b) {
      const std::vector<std::uint64_t>& ids = buckets_[b].ids;
      if (ids.front() > j.hi) break;
      const auto lo_it = std::lower_bound(ids.begin(), ids.end(), j.lo);
      const auto hi_it = std::upper_bound(lo_it, ids.end(), j.hi);
      for (auto it = lo_it; it != hi_it; ++it) f(*it);
    }
  }

  /// All present identities within [j.lo, j.hi], ascending.
  std::vector<std::uint64_t> ids_in(const Interval& j) const;

  /// All present identities, ascending (materialized; used by the A2
  /// full-vector ablation to build its message blob).
  std::vector<std::uint64_t> to_vector() const;

  std::uint64_t size() const { return size_; }
  std::uint64_t namespace_size() const { return namespace_size_; }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  /// One leaf: a sorted run of ids plus its incrementally maintained
  /// aggregate. Invariant: never empty, fingerprint == m61 sum of the ids'
  /// coefficients, buckets' id ranges are disjoint and ascending.
  struct Bucket {
    std::vector<std::uint64_t> ids;
    std::uint64_t fingerprint = 0;
  };

  /// Index of the first bucket whose max id is >= bound (== buckets_.size()
  /// when every stored id is smaller).
  std::size_t bucket_for(std::uint64_t bound) const;
  void split_bucket(std::size_t b);

  std::uint64_t namespace_size_;
  hashing::SetFingerprint hash_;
  std::size_t bucket_capacity_;
  std::vector<Bucket> buckets_;
  std::uint64_t size_ = 0;
};

}  // namespace renaming::byzantine
