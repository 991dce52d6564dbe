// Test-only helpers. This directory is on the include path of tests/,
// bench/ and examples/, never of src/: protocol code cannot call what it
// cannot include.
//
//  * raw_wire_bits — the one escape hatch from schema-derived widths
//    (sim/wire_schema.h), for fixtures that hand-build messages of
//    arbitrary or bench-local kinds. src/ declares it as a friend of
//    sim::WireBits but never defines it.
//  * of_range — dense reference fingerprints over a BitVec of the whole
//    identity space: an O(N)-shaped scan that the bucketed IdentityList's
//    incremental summaries exist to avoid (docs/PERFORMANCE.md "Protocol
//    hot path"). The equivalence tests and the micro-benchmarks compare
//    against them.
//  * copies — an outbox's per-recipient copies (Outbox::for_each_copy) as
//    a list, for tests that inspect what a node queued.
//  * Slots — the slot list of an InboxView over a list of messages, the
//    one form the engine delivers, for tests that drive receive() by hand.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "hashing/fingerprint.h"
#include "hashing/mersenne61.h"
#include "sim/message.h"
#include "sim/node.h"

namespace renaming::test_support {

constexpr sim::WireBits raw_wire_bits(std::uint32_t bits) {
  return sim::WireBits(bits);
}

/// SetFingerprint of the set positions of `bits` restricted to [lo, hi]
/// (inclusive, 0-based positions; position i is identity i + 1). O(hi-lo).
inline std::uint64_t of_range(const hashing::SetFingerprint& fp,
                              const BitVec& bits, std::uint64_t lo,
                              std::uint64_t hi) {
  std::uint64_t h = 0;
  for (std::uint64_t i = lo; i <= hi; ++i) {
    if (bits.test(i)) h = hashing::m61_add(h, fp.coefficient(i + 1));
  }
  return h;
}

/// RabinFingerprint of the bit string bits[lo..hi]: sum bits[lo+j] * x^j
/// mod p. Walks only the set positions (BitVec::next_set), jumping the
/// running power across zero runs with RabinFingerprint::power.
inline std::uint64_t of_range(const hashing::RabinFingerprint& fp,
                              const BitVec& bits, std::uint64_t lo,
                              std::uint64_t hi) {
  std::uint64_t h = 0;
  std::uint64_t cur = lo;  // position the running power refers to
  std::uint64_t xj = 1;    // x^(cur - lo)
  for (std::uint64_t i = bits.next_set(lo); i <= hi;
       i = bits.next_set(i + 1)) {
    xj = hashing::m61_mul(xj, fp.power(i - cur));
    cur = i;
    h = hashing::m61_add(h, xj);
  }
  return h;
}

/// The (dest, message) copies `out` queued, in for_each_copy() order.
inline std::vector<std::pair<NodeIndex, sim::Message>> copies(
    const sim::Outbox& out) {
  std::vector<std::pair<NodeIndex, sim::Message>> all;
  out.for_each_copy(
      [&](NodeIndex dest, const sim::Message& m) { all.emplace_back(dest, m); });
  return all;
}

/// An inbox of `msgs` for a hand-driven receive(): node.receive(round,
/// Slots(msgs)). The view reads these slots and `msgs`, so both must
/// outlive it; temporaries last until the end of the call's full
/// expression.
class Slots {
 public:
  explicit Slots(const std::vector<sim::Message>& msgs) {
    for (const sim::Message& m : msgs) slots_.push_back(&m);
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator sim::InboxView() const { return {slots_.data(), slots_.size()}; }

 private:
  std::vector<const sim::Message*> slots_;
};

}  // namespace renaming::test_support
