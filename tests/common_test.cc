// Unit tests for src/common and src/core primitives.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "common/bitvec.h"
#include "common/math.h"
#include "common/prng.h"
#include "core/interval.h"
#include "core/system.h"
#include "core/verifier.h"

namespace renaming {
namespace {

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
  EXPECT_EQ(ceil_log2(1ULL << 62), 62u);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2((1ULL << 40) + 17), 40u);
}

TEST(Math, ProtocolLogNeverZero) {
  EXPECT_GE(protocol_log(1), 1u);
  EXPECT_GE(protocol_log(2), 1u);
  EXPECT_EQ(protocol_log(1024), 10u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(Prng, DeterministicStreams) {
  Xoshiro256 a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    EXPECT_EQ(va, vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Prng, BelowIsInRangeAndCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Prng, ChanceExtremesAndBias) {
  Xoshiro256 rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(BitVec, SetTestCount) {
  BitVec b(200);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(199));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.set(63, false);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(BitVec, CountRangeMatchesNaive) {
  Xoshiro256 rng(99);
  BitVec b(517);
  std::vector<bool> ref(517, false);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t pos = rng.below(517);
    b.set(pos);
    ref[pos] = true;
  }
  for (int trial = 0; trial < 500; ++trial) {
    std::uint64_t lo = rng.below(517);
    std::uint64_t hi = rng.below(517);
    if (lo > hi) std::swap(lo, hi);
    std::uint64_t expect = 0;
    for (std::uint64_t i = lo; i <= hi; ++i) expect += ref[i];
    ASSERT_EQ(b.count_range(lo, hi), expect) << lo << ".." << hi;
  }
}

TEST(BitVec, RankIsPrefixCount) {
  BitVec b(130);
  b.set(0);
  b.set(5);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.rank(0), 0u);
  EXPECT_EQ(b.rank(1), 1u);
  EXPECT_EQ(b.rank(5), 1u);
  EXPECT_EQ(b.rank(6), 2u);
  EXPECT_EQ(b.rank(65), 3u);
  EXPECT_EQ(b.rank(130), 4u);
}

TEST(BitVec, NextSetFindsEverySetBitInOrder) {
  BitVec b(300);
  const std::vector<std::uint64_t> set_bits = {0, 1, 63, 64, 65, 128, 299};
  for (std::uint64_t i : set_bits) b.set(i);
  // Walking via next_set enumerates exactly the set bits, in order.
  std::vector<std::uint64_t> walked;
  for (std::uint64_t i = b.next_set(0); i < 300; i = b.next_set(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, set_bits);
  // From-positions inside gaps land on the next set bit.
  EXPECT_EQ(b.next_set(2), 63u);
  EXPECT_EQ(b.next_set(66), 128u);
  EXPECT_EQ(b.next_set(129), 299u);
  // Past the last set bit (and past the end): size() sentinel.
  EXPECT_EQ(b.next_set(300), 300u);
  EXPECT_EQ(b.next_set(1000), 300u);
  EXPECT_EQ(BitVec(128).next_set(0), 128u);  // all-zero vector
}

TEST(BitVec, NextSetMatchesNaiveScan) {
  Xoshiro256 rng(100);
  BitVec b(517);
  std::vector<bool> ref(517, false);
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t pos = rng.below(517);
    b.set(pos);
    ref[pos] = true;
  }
  for (std::uint64_t from = 0; from <= 517; ++from) {
    std::uint64_t expect = 517;
    for (std::uint64_t i = from; i < 517; ++i) {
      if (ref[i]) {
        expect = i;
        break;
      }
    }
    ASSERT_EQ(b.next_set(from), expect) << "from=" << from;
  }
}

TEST(Interval, BotTopPartition) {
  const Interval i(1, 10);
  EXPECT_EQ(i.bot(), Interval(1, 5));
  EXPECT_EQ(i.top(), Interval(6, 10));
  const Interval odd(3, 9);  // size 7 -> bot [3,6], top [7,9]
  EXPECT_EQ(odd.bot(), Interval(3, 6));
  EXPECT_EQ(odd.top(), Interval(7, 9));
  EXPECT_EQ(odd.bot().size() + odd.top().size(), odd.size());
}

TEST(Interval, SubsetDisjointContains) {
  const Interval i(4, 8);
  EXPECT_TRUE(Interval(5, 6).subset_of(i));
  EXPECT_TRUE(i.subset_of(i));
  EXPECT_FALSE(Interval(3, 5).subset_of(i));
  EXPECT_TRUE(Interval(1, 3).disjoint_from(i));
  EXPECT_TRUE(Interval(9, 12).disjoint_from(i));
  EXPECT_FALSE(Interval(8, 12).disjoint_from(i));
  EXPECT_TRUE(i.contains(4));
  EXPECT_TRUE(i.contains(8));
  EXPECT_FALSE(i.contains(9));
}

TEST(Interval, TreeDescentReachesEverySingleton) {
  // Every leaf [i,i] of the tree over [1, n] is reachable and tree_depth
  // is at most ceil(log2 n).
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 7ULL, 8ULL, 13ULL, 64ULL, 100ULL}) {
    const Interval root(1, n);
    for (std::uint64_t x = 1; x <= n; ++x) {
      const std::uint32_t d = tree_depth(root, Interval(x, x));
      EXPECT_LE(d, ceil_log2(n) + 1) << "n=" << n << " x=" << x;
    }
  }
}

TEST(SystemConfig, RandomIdsAreUniqueAndInRange) {
  const auto cfg = SystemConfig::random(500, 500 * 500, 1);
  ASSERT_EQ(cfg.ids.size(), 500u);
  std::unordered_set<OriginalId> seen(cfg.ids.begin(), cfg.ids.end());
  EXPECT_EQ(seen.size(), 500u);
  for (OriginalId id : cfg.ids) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 500u * 500u);
  }
}

TEST(SystemConfig, ClusteredIdsAreUniqueAndInRange) {
  const auto cfg = SystemConfig::clustered(300, 90000, 2, 4);
  ASSERT_EQ(cfg.ids.size(), 300u);
  std::unordered_set<OriginalId> seen(cfg.ids.begin(), cfg.ids.end());
  EXPECT_EQ(seen.size(), 300u);
  for (OriginalId id : cfg.ids) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 90000u);
  }
}

TEST(SystemConfig, DeterministicGivenSeed) {
  const auto a = SystemConfig::random(100, 10000, 77);
  const auto b = SystemConfig::random(100, 10000, 77);
  EXPECT_EQ(a.ids, b.ids);
}

TEST(SpreadFaulty, KeepsTheEvenSpreadAtSmallN) {
  EXPECT_EQ(spread_faulty(64, 3), (std::vector<NodeIndex>{1, 17, 33}));
  EXPECT_TRUE(spread_faulty(64, 0).empty());
}

TEST(SpreadFaulty, StaysDistinctWhereIndexTimesNOverflows32Bits) {
  // 4999 * 2^20 needs 33 bits; in 32-bit arithmetic 904 of these repeat.
  const NodeIndex n = 1u << 20;
  const auto faulty = spread_faulty(n, 5000);
  ASSERT_EQ(faulty.size(), 5000u);
  EXPECT_GE(faulty.front(), 1u);
  EXPECT_LT(faulty.back(), n);
  for (std::size_t i = 1; i < faulty.size(); ++i) {
    ASSERT_LT(faulty[i - 1], faulty[i]) << "i=" << i;
  }
}

TEST(Verifier, AcceptsPerfectRenaming) {
  std::vector<NodeOutcome> o = {
      {10, NewId{1}, true}, {20, NewId{2}, true}, {30, NewId{3}, true}};
  const auto r = verify_renaming(o, 3);
  EXPECT_TRUE(r.ok(true));
  EXPECT_TRUE(r.order_preserving);
}

TEST(Verifier, DetectsDuplicate) {
  std::vector<NodeOutcome> o = {
      {10, NewId{1}, true}, {20, NewId{1}, true}, {30, NewId{3}, true}};
  const auto r = verify_renaming(o, 3);
  EXPECT_FALSE(r.unique);
  EXPECT_FALSE(r.ok());
}

TEST(Verifier, DetectsOutOfRange) {
  std::vector<NodeOutcome> o = {{10, NewId{4}, true}, {20, NewId{2}, true}};
  const auto r = verify_renaming(o, 2);
  EXPECT_FALSE(r.strong);
}

TEST(Verifier, DetectsOrderViolationButOkWithoutOrderRequirement) {
  std::vector<NodeOutcome> o = {{10, NewId{2}, true}, {20, NewId{1}, true}};
  const auto r = verify_renaming(o, 2);
  EXPECT_FALSE(r.order_preserving);
  EXPECT_TRUE(r.ok(false));
  EXPECT_FALSE(r.ok(true));
}

TEST(Verifier, IgnoresByzantineAndCrashedOutputs) {
  std::vector<NodeOutcome> o = {
      {10, NewId{1}, true},
      {20, NewId{1}, false},  // Byzantine claims a duplicate: ignored
      {30, std::nullopt, false},
  };
  const auto r = verify_renaming(o, 3);
  EXPECT_TRUE(r.ok());
}

TEST(Verifier, FlagsUndecidedCorrectNode) {
  std::vector<NodeOutcome> o = {{10, std::nullopt, true}};
  const auto r = verify_renaming(o, 1);
  EXPECT_FALSE(r.all_correct_decided);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace renaming
