// Tests for the shared-randomness beacon, Mersenne-61 arithmetic and the
// two fingerprint families (Fact 3.2 stand-ins).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitvec.h"
#include "common/prng.h"
#include "hashing/fingerprint.h"
#include "hashing/mersenne61.h"
#include "hashing/shared_random.h"
#include "test_support.h"

namespace renaming::hashing {
namespace {

using test_support::of_range;

TEST(SharedRandomness, SameSeedSameValues) {
  SharedRandomness a(123), b(123);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.value(SharedRandomness::Domain::kHashCoefficients, i),
              b.value(SharedRandomness::Domain::kHashCoefficients, i));
  }
}

TEST(SharedRandomness, DomainsAreIndependent) {
  SharedRandomness a(123);
  int equal = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    equal += a.value(SharedRandomness::Domain::kHashCoefficients, i) ==
             a.value(SharedRandomness::Domain::kCommitteeElection, i);
  }
  EXPECT_EQ(equal, 0);
}

TEST(SharedRandomness, CoinBias) {
  SharedRandomness a(9);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    hits += a.coin(SharedRandomness::Domain::kCommitteeElection, i, 0.1);
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.1, 0.01);
}

TEST(Mersenne61, AddSubMulIdentities) {
  EXPECT_EQ(m61_add(kMersenne61 - 1, 1), 0u);
  EXPECT_EQ(m61_sub(0, 1), kMersenne61 - 1);
  EXPECT_EQ(m61_mul(1, 12345), 12345u);
  EXPECT_EQ(m61_mul(0, 12345), 0u);
  // (p-1)*(p-1) mod p == 1  (since -1 * -1 = 1)
  EXPECT_EQ(m61_mul(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

TEST(Mersenne61, PowMatchesRepeatedMul) {
  const std::uint64_t base = 0x123456789ABCDEFULL % kMersenne61;
  std::uint64_t acc = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(m61_pow(base, e), acc);
    acc = m61_mul(acc, base);
  }
}

TEST(Mersenne61, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for a != 0.
  for (std::uint64_t a : {2ULL, 3ULL, 123456789ULL}) {
    EXPECT_EQ(m61_pow(a, kMersenne61 - 1), 1u);
  }
}

class FingerprintTest : public ::testing::Test {
 protected:
  SharedRandomness beacon_{777};
  SetFingerprint set_{beacon_};
  RabinFingerprint rabin_{beacon_};
};

TEST_F(FingerprintTest, CoefficientsDeterministicAndInField) {
  SetFingerprint other{beacon_};
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const auto c = set_.coefficient(i);
    EXPECT_EQ(c, other.coefficient(i));
    EXPECT_LT(c, kMersenne61);
  }
}

TEST_F(FingerprintTest, EqualSegmentsHashEqual) {
  BitVec a(1000), b(1000);
  for (std::uint64_t i : {3ULL, 77ULL, 500ULL, 999ULL}) {
    a.set(i);
    b.set(i);
  }
  EXPECT_EQ(of_range(set_, a, 0, 999), of_range(set_, b, 0, 999));
  EXPECT_EQ(of_range(rabin_, a, 0, 999), of_range(rabin_, b, 0, 999));
  EXPECT_EQ(of_range(set_, a, 50, 600), of_range(set_, b, 50, 600));
}

TEST_F(FingerprintTest, SingleBitFlipChangesBothHashes) {
  BitVec a(4096), b(4096);
  Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    const auto pos = rng.below(4096);
    a.set(pos);
    b.set(pos);
  }
  // Flip one bit in b, in every word position class.
  for (std::uint64_t flip : {0ULL, 63ULL, 64ULL, 2048ULL, 4095ULL}) {
    BitVec c = b;
    c.set(flip, !c.test(flip));
    EXPECT_NE(of_range(set_, a, 0, 4095), of_range(set_, c, 0, 4095))
        << "flip=" << flip;
    EXPECT_NE(of_range(rabin_, a, 0, 4095), of_range(rabin_, c, 0, 4095))
        << "flip=" << flip;
  }
}

TEST_F(FingerprintTest, AdversariallySimilarSegmentsDoNotCollide) {
  // Segments that agree everywhere except swaps of adjacent positions —
  // the pattern a weak (e.g. popcount-only) fingerprint cannot separate.
  BitVec a(2048), b(2048);
  for (std::uint64_t i = 0; i < 2048; i += 4) {
    a.set(i);
    b.set(i + 1);
  }
  EXPECT_NE(of_range(set_, a, 0, 2047), of_range(set_, b, 0, 2047));
  EXPECT_NE(of_range(rabin_, a, 0, 2047), of_range(rabin_, b, 0, 2047));
  // Same popcount by construction:
  EXPECT_EQ(a.count(), b.count());
}

TEST_F(FingerprintTest, SetHashIsAdditiveOverDisjointRanges) {
  BitVec a(512);
  Xoshiro256 rng(17);
  for (int i = 0; i < 64; ++i) a.set(rng.below(512));
  const auto whole = of_range(set_, a, 0, 511);
  const auto left = of_range(set_, a, 0, 255);
  const auto right = of_range(set_, a, 256, 511);
  EXPECT_EQ(whole, m61_add(left, right));
}

TEST_F(FingerprintTest, OfIdsMatchesOfRange) {
  BitVec a(300);
  std::vector<std::uint64_t> ids;  // 1-based identities
  for (std::uint64_t pos : {5ULL, 17ULL, 123ULL, 299ULL}) {
    a.set(pos);
    ids.push_back(pos + 1);
  }
  EXPECT_EQ(of_range(set_, a, 0, 299), set_.of_ids(ids));
}

TEST_F(FingerprintTest, DifferentBeaconsGiveDifferentFunctions) {
  SharedRandomness beacon2(778);
  SetFingerprint set2{beacon2};
  int equal = 0;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    equal += set_.coefficient(i) == set2.coefficient(i);
  }
  EXPECT_EQ(equal, 0);
}

/// The pre-optimization Rabin evaluation: one multiplication per position,
/// set or not. The jump-table version must match it bit for bit.
std::uint64_t rabin_naive(const RabinFingerprint& rabin, const BitVec& bits,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t h = 0;
  std::uint64_t xj = 1;  // x^(i - lo)
  for (std::uint64_t i = lo; i <= hi; ++i) {
    if (bits.test(i)) h = m61_add(h, xj);
    xj = m61_mul(xj, rabin.point());
  }
  return h;
}

TEST_F(FingerprintTest, RabinPowerMatchesSquareAndMultiply) {
  Xoshiro256 rng(41);
  EXPECT_EQ(rabin_.power(0), 1u);
  EXPECT_EQ(rabin_.power(1), rabin_.point());
  for (int trial = 0; trial < 200; ++trial) {
    // Exercise every gap-width class, including >2^32 jumps.
    const std::uint64_t d = rng() >> (rng.below(64));
    EXPECT_EQ(rabin_.power(d), m61_pow(rabin_.point(), d)) << "d=" << d;
  }
}

TEST_F(FingerprintTest, RabinSparseScanMatchesNaiveReference) {
  // The of_range rewrite walks only set positions and jumps the running
  // power across zero runs; this pins it against the per-position scan on
  // the patterns that stress the jump logic: long zero runs (gaps crossing
  // many word boundaries), dense clusters, bits hugging the range edges,
  // and sub-ranges starting mid-word.
  constexpr std::uint64_t kBits = 1u << 14;
  BitVec sparse(kBits);
  for (std::uint64_t i : std::vector<std::uint64_t>{
           0, 1, 63, 64, 4000, 4001, 9999, kBits - 2, kBits - 1}) {
    sparse.set(i);
  }
  BitVec empty(kBits);
  BitVec dense(kBits);
  Xoshiro256 rng(42);
  for (int i = 0; i < 6000; ++i) dense.set(rng.below(kBits));
  for (const BitVec* v : {&sparse, &empty, &dense}) {
    EXPECT_EQ(of_range(rabin_, *v, 0, kBits - 1),
              rabin_naive(rabin_, *v, 0, kBits - 1));
    for (int trial = 0; trial < 60; ++trial) {
      std::uint64_t lo = rng.below(kBits);
      std::uint64_t hi = rng.below(kBits);
      if (lo > hi) std::swap(lo, hi);
      ASSERT_EQ(of_range(rabin_, *v, lo, hi), rabin_naive(rabin_, *v, lo, hi))
          << lo << ".." << hi;
    }
  }
  // Singleton ranges: set and unset positions.
  EXPECT_EQ(of_range(rabin_, sparse, 64, 64), 1u);
  EXPECT_EQ(of_range(rabin_, sparse, 65, 65), 0u);
}

TEST_F(FingerprintTest, RandomPairsNeverCollide) {
  // 200 random distinct 128-bit-dense vectors; all pairwise fingerprints
  // distinct (collision probability ~ 200^2 / 2^61, i.e. never).
  Xoshiro256 rng(31);
  std::vector<std::uint64_t> hashes;
  for (int k = 0; k < 200; ++k) {
    BitVec v(256);
    for (int i = 0; i < 128; ++i) v.set(rng.below(256));
    hashes.push_back(of_range(set_, v, 0, 255));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}


TEST_F(FingerprintTest, AllSubsetsOfSmallUniverseAreDistinct) {
  // Exhaustive collision check: all 2^16 subsets of a 16-identity universe
  // hash to distinct values (expected collisions ~ 2^32 / 2^61 = 0).
  std::vector<std::uint64_t> coeff;
  for (std::uint64_t id = 1; id <= 16; ++id) {
    coeff.push_back(set_.coefficient(id));
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(1u << 16);
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    std::uint64_t h = 0;
    for (int b = 0; b < 16; ++b) {
      if (mask & (1u << b)) h = m61_add(h, coeff[b]);
    }
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

}  // namespace
}  // namespace renaming::hashing
