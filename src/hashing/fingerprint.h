// Segment fingerprints for the Byzantine-resilient algorithm (Fact 3.2).
//
// The committee must compare segments L_v[l..r] of length-N bit vectors
// while exchanging only O(log N) bits. Two interchangeable fingerprints are
// provided; both are derived from the shared randomness beacon, so all
// correct committee members evaluate the *same* random hash function:
//
//  * SetFingerprint — H(L[l..r]) = sum over set positions i in [l,r] of
//    c_i mod (2^61-1), with per-position coefficients c_i drawn from the
//    beacon on every query: the beacon is stateless, so c_i is a pure
//    function of (seed, i) and no table of them is kept or shared
//    between nodes or threads. Position-sensitive within the fixed
//    namespace, computable in O(ones), and homomorphic under single-bit
//    flips — m61 addition is an invertible group operation, which is what
//    lets byzantine/identity_list.h maintain per-bucket aggregates
//    incrementally. Two different segments (as subsets of [N]) collide
//    with probability 1/p.
//
//  * RabinFingerprint — the classical polynomial fingerprint of the
//    explicit bit string, sum b_j x^j mod p at a shared random point x.
//    Content-based (two equal bit strings at different offsets hash equal),
//    used as an independent cross-check in tests. power() reads a
//    precomputed x^(2^j) jump table, so a walk over a sparse string costs
//    O(ones * log(gap)) multiplications rather than O(length).
//
// Neither class scans a dense BitVec: the reference evaluations over one
// (of_range) live in tests/support/test_support.h, outside src/, so
// protocol code cannot call them.
//
// The paper only requires: identical segments hash identically (trivially
// true), and distinct segments hash distinctly w.h.p. (Property 3.7,
// item 2). Tests exercise both over adversarially similar inputs.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "hashing/mersenne61.h"
#include "hashing/shared_random.h"

namespace renaming::hashing {

/// Draws the coefficient for namespace position `i` (1-based identity)
/// directly from the beacon: rejection sampling keeps the value uniform in
/// [0, p).
inline std::uint64_t sample_coefficient(const SharedRandomness& beacon,
                                        std::uint64_t i) {
  std::uint64_t salt = 0;
  for (;;) {
    const std::uint64_t c =
        beacon.value(SharedRandomness::Domain::kHashCoefficients,
                     i + (salt << 48)) &
        kMersenne61;
    if (c != kMersenne61) return c;  // c == p would be out of field range
    ++salt;
  }
}

class SetFingerprint {
 public:
  /// Copies the beacon (it is just a seed), so the fingerprint never
  /// dangles and is safe to use from any thread.
  explicit SetFingerprint(const SharedRandomness& beacon) : beacon_(beacon) {}

  /// Coefficient for namespace position `i` (1-based original identity).
  std::uint64_t coefficient(std::uint64_t i) const {
    return sample_coefficient(beacon_, i);
  }

  /// Fingerprint of an explicit sorted list of set positions (1-based ids).
  std::uint64_t of_ids(std::span<const std::uint64_t> ids) const {
    std::uint64_t h = 0;
    for (std::uint64_t id : ids) h = m61_add(h, coefficient(id));
    return h;
  }

 private:
  SharedRandomness beacon_;
};

class RabinFingerprint {
 public:
  explicit RabinFingerprint(const SharedRandomness& beacon)
      : x_(1 + beacon.value(SharedRandomness::Domain::kHashCoefficients, 0) %
                   (kMersenne61 - 1)) {
    // Jump table: x2j_[j] = x^(2^j) mod p. x^d for any 64-bit gap d is the
    // product of the entries at d's set bits, so advancing the running
    // power over a zero run costs popcount(d) multiplications instead of d.
    x2j_[0] = x_;
    for (std::size_t j = 1; j < kJumpBits; ++j) {
      x2j_[j] = m61_mul(x2j_[j - 1], x2j_[j - 1]);
    }
  }

  /// x^d mod p in O(popcount(d)) multiplications via the jump table.
  std::uint64_t power(std::uint64_t d) const {
    std::uint64_t r = 1;
    while (d != 0) {
      const int j = std::countr_zero(d);
      r = m61_mul(r, x2j_[static_cast<std::size_t>(j)]);
      d &= d - 1;  // clear the lowest set bit
    }
    return r;
  }

  std::uint64_t point() const { return x_; }

 private:
  // 64 entries cover every possible std::uint64_t gap.
  static constexpr std::size_t kJumpBits = 64;

  std::uint64_t x_;
  std::uint64_t x2j_[kJumpBits];
};

}  // namespace renaming::hashing
