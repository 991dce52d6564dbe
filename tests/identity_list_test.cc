// Tests for IdentityList: cross-checked against the dense BitVec + the
// reference SetFingerprint on random and adversarial contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "byzantine/identity_list.h"
#include "common/bitvec.h"
#include "common/prng.h"
#include "hashing/fingerprint.h"
#include "test_support.h"

namespace renaming::byzantine {
namespace {

using test_support::of_range;

class IdentityListTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kN = 5000;
  hashing::SharedRandomness beacon_{4242};
  hashing::SetFingerprint reference_{beacon_};
};

TEST_F(IdentityListTest, EmptyListSummaries) {
  IdentityList list(kN, beacon_);
  const auto s = list.summarize(Interval(1, kN));
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.fingerprint, 0u);
  EXPECT_EQ(list.rank(kN), 0u);
}

TEST_F(IdentityListTest, InsertIsIdempotent) {
  IdentityList list(kN, beacon_);
  list.insert(17);
  list.insert(17);
  list.insert(17);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.summarize(Interval(1, kN)).count, 1u);
}

TEST_F(IdentityListTest, MatchesDenseReferenceOnRandomContents) {
  // SetFingerprint::of_range is 0-based (position i <-> identity i+1), so
  // the dense mirror stores identity `id` at position `id - 1`.
  IdentityList list(kN, beacon_);
  BitVec dense(kN);
  Xoshiro256 rng(9);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t id = 1 + rng.below(kN);
    list.insert(id);
    dense.set(id - 1);
  }
  EXPECT_EQ(list.size(), dense.count());
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t lo = 1 + rng.below(kN);
    std::uint64_t hi = 1 + rng.below(kN);
    if (lo > hi) std::swap(lo, hi);
    const auto s = list.summarize(Interval(lo, hi));
    ASSERT_EQ(s.count, dense.count_range(lo - 1, hi - 1)) << lo << ".." << hi;
    ASSERT_EQ(s.fingerprint, of_range(reference_, dense, lo - 1, hi - 1))
        << lo << ".." << hi;
  }
}

TEST_F(IdentityListTest, RankMatchesDense) {
  IdentityList list(kN, beacon_);
  BitVec dense(kN + 1);
  Xoshiro256 rng(10);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t id = 1 + rng.below(kN);
    list.insert(id);
    dense.set(id);
  }
  for (std::uint64_t probe : {std::uint64_t{1}, std::uint64_t{100}, std::uint64_t{2500}, kN}) {
    EXPECT_EQ(list.rank(probe), dense.rank(probe));
  }
}

TEST_F(IdentityListTest, SetFlipsBitsBothWays) {
  IdentityList list(kN, beacon_);
  list.insert(100);
  list.insert(200);
  const auto before = list.summarize(Interval(1, kN));
  list.set(100, false);
  EXPECT_EQ(list.summarize(Interval(1, kN)).count, 1u);
  list.set(100, true);
  const auto after = list.summarize(Interval(1, kN));
  EXPECT_EQ(after, before);
  list.set(300, true);
  EXPECT_EQ(list.size(), 3u);
  list.set(999, false);  // absent: no-op
  EXPECT_EQ(list.size(), 3u);
}

TEST_F(IdentityListTest, SegmentAdditivity) {
  // fingerprint([1,N]) = fp([1,mid]) + fp([mid+1,N]) in the field.
  IdentityList list(kN, beacon_);
  Xoshiro256 rng(11);
  for (int i = 0; i < 300; ++i) list.insert(1 + rng.below(kN));
  const auto whole = list.summarize(Interval(1, kN));
  const auto left = list.summarize(Interval(1, kN / 2));
  const auto right = list.summarize(Interval(kN / 2 + 1, kN));
  EXPECT_EQ(whole.count, left.count + right.count);
  EXPECT_EQ(whole.fingerprint,
            hashing::m61_add(left.fingerprint, right.fingerprint));
}

TEST_F(IdentityListTest, IdsInReturnsExactWindow) {
  IdentityList list(kN, beacon_);
  for (std::uint64_t id : {10ULL, 20ULL, 30ULL, 40ULL}) list.insert(id);
  const auto window = list.ids_in(Interval(15, 35));
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0], 20u);
  EXPECT_EQ(window[1], 30u);
  EXPECT_EQ(list.ids_in(Interval(41, kN)).size(), 0u);
  EXPECT_EQ(list.ids_in(Interval(10, 10)).size(), 1u);
}

TEST_F(IdentityListTest, TwoListsSameContentSameFingerprints) {
  IdentityList a(kN, beacon_), b(kN, beacon_);
  Xoshiro256 rng(12);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(1 + rng.below(kN));
  for (auto id : ids) a.insert(id);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) b.insert(*it);
  for (std::uint64_t span : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{100}, kN}) {
    for (std::uint64_t lo = 1; lo + span - 1 <= kN; lo += kN / 7 + 1) {
      const Interval j(lo, lo + span - 1);
      ASSERT_EQ(a.summarize(j), b.summarize(j));
    }
  }
}

TEST_F(IdentityListTest, RandomInterleavingsMatchDenseAcrossBucketSplits) {
  // The bucketed representation maintains per-leaf fingerprint aggregates
  // incrementally (inserts add a coefficient, removals subtract it — m61
  // addition is a group). A tiny bucket capacity forces constant leaf
  // splits and leaf removals, and a long random interleaving of inserts
  // and erases must track the dense BitVec + reference hash at every step.
  constexpr std::uint64_t kSmallN = 700;
  IdentityList list(kSmallN, beacon_, /*bucket_capacity=*/8);
  BitVec dense(kSmallN);
  Xoshiro256 rng(77);
  std::vector<std::uint64_t> present;
  for (int step = 0; step < 4000; ++step) {
    if (present.empty() || rng.chance(0.6)) {
      const std::uint64_t id = 1 + rng.below(kSmallN);
      list.insert(id);
      if (!dense.test(id - 1)) present.push_back(id);
      dense.set(id - 1);
    } else {
      const std::size_t at = rng.below(present.size());
      const std::uint64_t id = present[at];
      list.set(id, false);
      dense.set(id - 1, false);
      present[at] = present.back();
      present.pop_back();
    }
    if (step % 97 != 0) continue;
    ASSERT_EQ(list.size(), dense.count()) << "step " << step;
    std::uint64_t lo = 1 + rng.below(kSmallN);
    std::uint64_t hi = 1 + rng.below(kSmallN);
    if (lo > hi) std::swap(lo, hi);
    const auto s = list.summarize(Interval(lo, hi));
    ASSERT_EQ(s.count, dense.count_range(lo - 1, hi - 1)) << "step " << step;
    ASSERT_EQ(s.fingerprint, of_range(reference_, dense, lo - 1, hi - 1))
        << "step " << step;
    ASSERT_EQ(list.rank(hi), dense.rank(hi - 1)) << "step " << step;
    const auto window = list.ids_in(Interval(lo, hi));
    ASSERT_EQ(window.size(), s.count) << "step " << step;
    ASSERT_EQ(reference_.of_ids(window), s.fingerprint) << "step " << step;
  }
  EXPECT_GT(list.bucket_count(), 4u);  // capacity 8 must have forced splits
}

TEST_F(IdentityListTest, BucketCapacityIsObservationallyInvisible) {
  // Same contents, radically different leaf layouts: every summary, rank
  // and window must agree (the protocol never sees bucket boundaries).
  Xoshiro256 rng(78);
  IdentityList tiny(kN, beacon_, 2), small(kN, beacon_, 16),
      wide(kN, beacon_, 4096);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t id = 1 + rng.below(kN);
    tiny.insert(id);
    small.insert(id);
    wide.insert(id);
  }
  EXPECT_GT(tiny.bucket_count(), small.bucket_count());
  EXPECT_EQ(wide.bucket_count(), 1u);
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t lo = 1 + rng.below(kN);
    std::uint64_t hi = 1 + rng.below(kN);
    if (lo > hi) std::swap(lo, hi);
    const Interval j(lo, hi);
    ASSERT_EQ(tiny.summarize(j), small.summarize(j));
    ASSERT_EQ(tiny.summarize(j), wide.summarize(j));
    ASSERT_EQ(tiny.ids_in(j), small.ids_in(j));
    ASSERT_EQ(tiny.rank(hi), wide.rank(hi));
  }
}

TEST_F(IdentityListTest, DiffersAtSingleIdDetected) {
  IdentityList a(kN, beacon_), b(kN, beacon_);
  for (std::uint64_t id = 5; id <= kN; id += 13) {
    a.insert(id);
    b.insert(id);
  }
  b.insert(1234);  // one extra identity
  EXPECT_NE(a.summarize(Interval(1, kN)), b.summarize(Interval(1, kN)));
  // Drill down: exactly the root-to-leaf path containing 1234 differs.
  Interval j(1, kN);
  int depth = 0;
  while (!j.singleton()) {
    EXPECT_NE(a.summarize(j).fingerprint, b.summarize(j).fingerprint);
    const Interval sibling = j.bot().contains(1234) ? j.top() : j.bot();
    EXPECT_EQ(a.summarize(sibling), b.summarize(sibling));
    j = j.bot().contains(1234) ? j.bot() : j.top();
    ++depth;
  }
  EXPECT_EQ(a.summarize(j).count + 1, b.summarize(j).count);
  EXPECT_GT(depth, 5);
}

// Every observable of `a` equals that of `b` on random probes.
void expect_same_observables(const IdentityList& a, const IdentityList& b,
                             Xoshiro256& rng, std::uint64_t n,
                             const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.to_vector(), b.to_vector()) << where;
  ASSERT_EQ(a.summarize(Interval(1, n)), b.summarize(Interval(1, n)))
      << where;
  for (int trial = 0; trial < 60; ++trial) {
    std::uint64_t lo = 1 + rng.below(n);
    std::uint64_t hi = 1 + rng.below(n);
    if (lo > hi) std::swap(lo, hi);
    const Interval j(lo, hi);
    ASSERT_EQ(a.summarize(j), b.summarize(j)) << where << " " << lo << ".."
                                              << hi;
    ASSERT_EQ(a.ids_in(j), b.ids_in(j)) << where;
    ASSERT_EQ(a.rank(lo), b.rank(lo)) << where;
    ASSERT_EQ(a.rank(hi), b.rank(hi)) << where;
  }
}

TEST_F(IdentityListTest, BulkLoadEqualsInsertBuiltAndStaysEqualUnderFlips) {
  // The round-2 list is bulk-loaded from sorted reports; the singleton
  // consensus then flips single positions. Both must be invisible next to
  // the same contents built one insert at a time, in arrival order.
  Xoshiro256 rng(80);
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{8},
                                     std::size_t{256}}) {
    for (const std::size_t target :
         {std::size_t{0}, std::size_t{1}, capacity, capacity + 1,
          std::size_t{3 * 256 + 5}, std::size_t{3000}}) {
      const std::string where = "capacity " + std::to_string(capacity) +
                                " size " + std::to_string(target);
      std::vector<std::uint64_t> arrivals;
      while (arrivals.size() < target) arrivals.push_back(1 + rng.below(kN));
      IdentityList inserted(kN, beacon_, capacity);
      for (std::uint64_t id : arrivals) inserted.insert(id);
      std::vector<std::uint64_t> sorted = arrivals;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      IdentityList bulk(kN, beacon_, capacity);
      bulk.insert(4999);  // assign_sorted replaces earlier contents
      bulk.assign_sorted(sorted);
      EXPECT_EQ(bulk.bucket_count(),
                (sorted.size() + capacity - 1) / capacity)
          << where << ": leaves are filled to capacity";
      expect_same_observables(bulk, inserted, rng, kN, where);

      const std::size_t leaves = bulk.bucket_count();
      for (int flip = 0; flip < 400; ++flip) {
        const std::uint64_t id = 1 + rng.below(kN);
        const bool present = rng.chance(0.7);
        bulk.set(id, present);
        inserted.set(id, present);
        if (flip % 50 == 49) {
          expect_same_observables(bulk, inserted, rng, kN, where);
        }
      }
      if (target > capacity) {
        EXPECT_GT(bulk.bucket_count(), leaves)
            << where << ": inserts into full leaves must have split them";
      }
      EXPECT_EQ(bulk.summarize(Interval(1, kN)).fingerprint,
                reference_.of_ids(bulk.to_vector()))
          << where;
    }
  }
}

// The leaf layout IdentityList keeps: assign_sorted() fills leaves to
// capacity; an insert goes to the first leaf whose last id is not smaller
// (else the last leaf), and a leaf over capacity splits in half; an erase
// drops a leaf it empties. The test below uses it only to aim segments at
// leaf edges, and bucket_count() checks that it still matches the list.
class LeafModel {
 public:
  LeafModel(const std::vector<std::uint64_t>& sorted, std::size_t capacity)
      : capacity_(capacity) {
    for (std::size_t at = 0; at < sorted.size(); at += capacity) {
      leaves_.emplace_back(
          sorted.begin() + static_cast<std::ptrdiff_t>(at),
          sorted.begin() + static_cast<std::ptrdiff_t>(
                               std::min(sorted.size(), at + capacity)));
    }
  }

  void set(std::uint64_t id, bool present) {
    std::size_t b = 0;
    while (b < leaves_.size() && leaves_[b].back() < id) ++b;
    if (!present) {
      if (b == leaves_.size()) return;
      auto& ids = leaves_[b];
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) return;
      ids.erase(it);
      if (ids.empty()) {
        leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(b));
      }
      return;
    }
    if (leaves_.empty()) {
      leaves_.push_back({id});
      return;
    }
    if (b == leaves_.size()) --b;
    auto& ids = leaves_[b];
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it != ids.end() && *it == id) return;
    ids.insert(it, id);
    if (ids.size() <= capacity_) return;
    const auto half = ids.begin() + static_cast<std::ptrdiff_t>(ids.size() / 2);
    std::vector<std::uint64_t> upper(half, ids.end());
    ids.erase(half, ids.end());
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                   std::move(upper));
  }

  const std::vector<std::vector<std::uint64_t>>& leaves() const {
    return leaves_;
  }

 private:
  std::size_t capacity_;
  std::vector<std::vector<std::uint64_t>> leaves_;
};

TEST_F(IdentityListTest, ForEachIdInMatchesDenseReference) {
  // for_each_id_in reads the leaves in place, so its edge cases are the
  // leaf edges: every segment below is walked and compared with the dense
  // mirror, after a bulk load and again as set() inserts split leaves and
  // erases empty them.
  Xoshiro256 rng(81);
  for (const std::size_t capacity :
       {std::size_t{2}, std::size_t{3}, std::size_t{256}}) {
    const std::string where = "capacity " + std::to_string(capacity);
    const std::size_t initial = capacity == 256 ? 700 : 60;
    BitVec dense(kN);
    std::vector<std::uint64_t> sorted;
    while (sorted.size() < initial) {
      const std::uint64_t id = 1 + rng.below(kN);
      if (dense.test(id - 1)) continue;
      dense.set(id - 1);
      sorted.push_back(id);
    }
    std::sort(sorted.begin(), sorted.end());
    IdentityList list(kN, beacon_, capacity);
    list.assign_sorted(sorted);
    LeafModel model(sorted, capacity);
    bool split = false, emptied = false;

    for (int check = 0; check < 6; ++check) {
      ASSERT_EQ(model.leaves().size(), list.bucket_count()) << where;
      std::vector<std::uint64_t> present;
      for (std::uint64_t id = 1; id <= kN; ++id) {
        if (dense.test(id - 1)) present.push_back(id);
      }
      // Segments with lo > hi after a ±1 shift are dropped, not clamped.
      std::vector<Interval> segments = {Interval(1, kN)};
      const auto add = [&](std::int64_t lo, std::int64_t hi) {
        if (lo >= 1 && lo <= hi && hi <= static_cast<std::int64_t>(kN)) {
          segments.emplace_back(static_cast<std::uint64_t>(lo),
                                static_cast<std::uint64_t>(hi));
        }
      };
      const auto& leaves = model.leaves();
      for (std::size_t b = 0; b < leaves.size(); ++b) {
        const auto first = static_cast<std::int64_t>(leaves[b].front());
        const auto last = static_cast<std::int64_t>(leaves[b].back());
        add(first, first);  // a single id
        add(first, last);   // exactly one leaf
        for (std::int64_t d : {-1, 1}) {
          add(first + d, last);
          add(first, last + d);
          add(first + d, last - d);
        }
        if (b + 1 < leaves.size()) {
          // Across the boundary to the next leaf, each end moved by ±1,
          // and the gap between them (empty when they are neighbours).
          const auto next = static_cast<std::int64_t>(leaves[b + 1].front());
          for (std::int64_t dl : {-1, 0, 1}) {
            for (std::int64_t dh : {-1, 0, 1}) add(last + dl, next + dh);
          }
          add(last + 1, next - 1);
        }
      }
      if (!present.empty()) {
        add(1, static_cast<std::int64_t>(present.front()) - 1);  // empty
        add(static_cast<std::int64_t>(present.back()) + 1,
            static_cast<std::int64_t>(kN));                       // empty
      }
      for (int r = 0; r < 50; ++r) {
        std::uint64_t lo = 1 + rng.below(kN);
        std::uint64_t hi = 1 + rng.below(kN);
        if (lo > hi) std::swap(lo, hi);
        segments.emplace_back(lo, hi);
      }

      for (const Interval& j : segments) {
        std::vector<std::uint64_t> walked;
        list.for_each_id_in(j, [&](std::uint64_t id) { walked.push_back(id); });
        const std::vector<std::uint64_t> expected(
            std::lower_bound(present.begin(), present.end(), j.lo),
            std::upper_bound(present.begin(), present.end(), j.hi));
        ASSERT_EQ(walked, expected) << where << " check " << check << " ["
                                    << j.lo << ", " << j.hi << "]";
        ASSERT_EQ(list.ids_in(j), expected) << where;
        ASSERT_EQ(list.summarize(j).count, expected.size()) << where;
      }

      // Mutate: inserts into full leaves split them, erases of a leaf's
      // last ids drop it.
      for (int step = 0; step < 120; ++step) {
        const std::size_t leaves_before = list.bucket_count();
        std::uint64_t id = 1 + rng.below(kN);
        bool insert = rng.chance(0.5);
        if (!insert && !present.empty()) {
          id = present[rng.below(present.size())];
        }
        list.set(id, insert);
        model.set(id, insert);
        dense.set(id - 1, insert);
        split |= list.bucket_count() > leaves_before;
        emptied |= list.bucket_count() < leaves_before;
      }
    }
    EXPECT_TRUE(split) << where;
    EXPECT_TRUE(emptied || capacity == 256) << where;
  }
}

using IdentityListDeathTest = IdentityListTest;

TEST_F(IdentityListDeathTest, BulkLoadRejectsUnsortedDuplicateAndForeignIds) {
  IdentityList list(kN, beacon_, 8);
  const std::vector<std::uint64_t> unsorted = {3, 9, 7};
  const std::vector<std::uint64_t> duplicate = {3, 9, 9, 12};
  const std::vector<std::uint64_t> zero = {0, 4};
  const std::vector<std::uint64_t> beyond = {4, kN + 1};
  EXPECT_DEATH(list.assign_sorted(unsorted), "ascend strictly");
  EXPECT_DEATH(list.assign_sorted(duplicate), "ascend strictly");
  EXPECT_DEATH(list.assign_sorted(zero), "outside the namespace");
  EXPECT_DEATH(list.assign_sorted(beyond), "outside the namespace");
}

}  // namespace
}  // namespace renaming::byzantine
