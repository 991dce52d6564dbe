// Wire message representation for the synchronous message-passing model.
//
// Model constraints (Section 1): the network is complete, nodes exchange
// messages in synchronous rounds, and each message carries at most
// Theta(log N) bits. Every message therefore declares its wire size in
// bits (`bits`), which the engine aggregates into the bit-complexity
// statistics; tests assert that the paper's algorithms never exceed their
// O(log N) budget, while the large-message baselines (Okun et al. style)
// deliberately do.
//
// Authentication (assumption of Theorem 1.3): `sender` is stamped by the
// engine and cannot be forged. A Byzantine node may *attempt* to claim a
// different origin by setting `claimed_sender`; the engine drops such
// messages and counts the attempt, which is exactly the guarantee a PKI
// with certificate chains provides in the paper's discussion (Section 3.2).
//
// Widths are typed: a `WireBits` is minted only by wire::wire_bits() and the
// named adversarial probe constants (sim/wire_schema.h), so a hand-written
// integer width does not compile. Reading one back is an implicit
// conversion to std::uint32_t.
//
// Layout (docs/PERFORMANCE.md "Message layout"): one 64-byte cache line —
// a 16-byte header (origins, kind, word count, wire size), five inline
// payload words and one blob pointer — so an outbox entry
// pair<NodeIndex, Message> is 72 bytes. A blob (the bulk payload of the
// Omega(n)-bit baselines and ablation A2) is owned by the Outbox that
// queued it (sim/node.h, wire::make_blob_message) and stays valid until
// that outbox's end-of-round clear(), i.e. through the round's receive
// phase; copies of a Message share the pointer, never the ownership.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace renaming::sim {

/// Message tag as it travels in Message::kind. Shipped kinds are the
/// enumerators of wire::Kind (sim/wire_schema.h); bench- and test-local
/// kinds are bare numbers.
using MsgKind = std::uint16_t;

class WireBits;

namespace wire {
enum class Kind : MsgKind;
struct WireContext;
struct ProbeWidths;
constexpr WireBits wire_bits(Kind kind, const WireContext& ctx);
constexpr WireBits wire_bits(Kind kind, const WireContext& ctx,
                             std::uint64_t payload_count);
}  // namespace wire

}  // namespace renaming::sim

namespace renaming::test_support {
/// Defined only in tests/support/test_support.h, outside src/.
constexpr sim::WireBits raw_wire_bits(std::uint32_t bits);
}  // namespace renaming::test_support

namespace renaming::sim {

/// A message's declared wire size in bits. Default-constructed it is 0,
/// which every send path rejects; otherwise it comes from the schema.
class WireBits {
 public:
  constexpr WireBits() = default;
  constexpr operator std::uint32_t() const { return bits_; }

 private:
  constexpr explicit WireBits(std::uint32_t bits) : bits_(bits) {}

  friend constexpr WireBits wire::wire_bits(wire::Kind,
                                            const wire::WireContext&);
  friend constexpr WireBits wire::wire_bits(wire::Kind,
                                            const wire::WireContext&,
                                            std::uint64_t);
  friend struct wire::ProbeWidths;
  friend constexpr WireBits test_support::raw_wire_bits(std::uint32_t);

  std::uint32_t bits_ = 0;
};

/// Maximum number of inline payload words: the widest fixed layout in
/// `kWireSchemas` (crash STATUS/RESPONSE, the validator vote). Every
/// O(log N)-bit message of the paper's two algorithms fits without heap
/// allocation; bulk payloads (baselines that ship Omega(n)-bit messages)
/// use the outbox-owned `blob`.
inline constexpr std::size_t kInlineWords = 5;

struct Message {
  NodeIndex sender = kNoNode;          ///< True origin, stamped by engine.
  NodeIndex claimed_sender = kNoNode;  ///< Origin claimed by the sender.
  MsgKind kind = 0;
  std::uint8_t nwords = 0;             ///< Meaningful entries of `w`.
  /// Declared wire size in bits (for complexity accounting). Must be > 0.
  WireBits bits;
  std::array<std::uint64_t, kInlineWords> w{};
  /// Optional bulk payload, owned by the queuing Outbox until its clear();
  /// every copy a broadcast creates points at the same vector.
  const std::vector<std::uint64_t>* blob = nullptr;

  bool spoofed() const { return claimed_sender != sender; }
};

static_assert(sizeof(Message) == 64, "a Message is one cache line");
static_assert(sizeof(std::pair<NodeIndex, Message>) == 72,
              "an outbox entry is a destination plus one Message");

/// Convenience builder for small (inline) messages.
template <typename... Words>
Message make_message(MsgKind kind, WireBits bits, Words... words) {
  static_assert(sizeof...(Words) <= kInlineWords);
  RENAMING_CHECK(bits > 0, "every message must declare a wire size");
  Message m;
  m.kind = kind;
  m.bits = bits;
  m.nwords = static_cast<std::uint8_t>(sizeof...(Words));
  std::size_t i = 0;
  ((m.w[i++] = static_cast<std::uint64_t>(words)), ...);
  return m;
}

}  // namespace renaming::sim
