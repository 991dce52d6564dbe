// Execution statistics: the quantities the paper's theorems bound.
//
// Message complexity counts messages that actually left a sender (a node
// crashed mid-send is charged only for the messages the adversary let out,
// matching "we allow a node to crash ... even in the middle of sending a
// message"). Bit complexity sums the declared wire sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/message.h"

namespace renaming::sim {

struct RoundStats {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t crashes = 0;  ///< Nodes crashed during this round.

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

struct RunStats {
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t rounds = 0;
  std::uint64_t crashes = 0;          ///< f: actual number of crash failures.
  std::uint64_t byzantine = 0;        ///< f: actual number of Byzantine nodes.
  std::uint64_t spoofs_rejected = 0;  ///< Forged-origin messages dropped.
  std::uint32_t max_message_bits = 0;
  std::vector<RoundStats> per_round;

  friend bool operator==(const RunStats&, const RunStats&) = default;

  /// Charges one `bits`-sized message to the totals and to the current
  /// round's ledger. All accumulators are 64-bit: a quadratic baseline at
  /// n = 10^5 with Omega(n)-bit messages overflows 32-bit bit counters.
  void note_message(WireBits bits) {
    RENAMING_CHECK(!per_round.empty(),
                   "note_message before any round began");
    RENAMING_CHECK(bits > 0, "every message must declare a wire size");
    ++total_messages;
    total_bits += bits;
    if (bits > max_message_bits) max_message_bits = bits;
    ++per_round.back().messages;
    per_round.back().bits += bits;
  }

  /// Charges `count` equal-sized messages in one step — the broadcast fast
  /// path's bulk accounting. Exactly equivalent to `count` note_message
  /// calls (tests pin this), so every ledger downstream is unchanged.
  /// In particular count == 0 is a true no-op: zero note_message calls
  /// touch nothing — not max_message_bits, and not the precondition
  /// checks, which only guard actual charges.
  void note_messages(std::uint64_t count, WireBits bits) {
    if (count == 0) return;
    RENAMING_CHECK(!per_round.empty(),
                   "note_message before any round began");
    RENAMING_CHECK(bits > 0, "every message must declare a wire size");
    total_messages += count;
    total_bits += static_cast<std::uint64_t>(bits) * count;
    if (bits > max_message_bits) max_message_bits = bits;
    per_round.back().messages += count;
    per_round.back().bits += static_cast<std::uint64_t>(bits) * count;
  }
};

}  // namespace renaming::sim
