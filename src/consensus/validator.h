// Weak validator (Lemma 3.3), after Lenzen & Sheikholeslami's recursive
// phase-king building block: a 2-round primitive over the committee view
// whose output <same_v, out_v> satisfies
//
//   validity:        out_v equals some correct member's input, and if all
//                    correct members hold the same input `in`, then
//                    same_v = 1 and out_v = in;
//   weak agreement:  if same_v = 1 at any correct v, then out_u = out_v at
//                    every correct u.
//
// Inputs are two 64-bit words — exactly the <fingerprint, count> tuple the
// renaming algorithm validates — so each message stays within O(log N)
// bits. Round 1 proposes inputs; a member "votes" a value only if it saw it
// from >= m - t distinct members. Round 2 exchanges votes: a value with
// >= m - t votes yields same = 1; a value with >= t + 1 votes (hence at
// least one correct voter; at most one such value can exist when m > 3t)
// yields same = 0 with that value; otherwise the member keeps its input.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/committee.h"
#include "consensus/subprotocol.h"
#include "obs/phase.h"
#include "sim/message.h"
#include "sim/wire_schema.h"

namespace renaming::consensus {

struct ValidatorValue {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const ValidatorValue&, const ValidatorValue&) = default;
};

class Validator final : public SubProtocol {
 public:
  /// Central phase-id table entry (obs/phase.h): Validator traffic is the
  /// fingerprint-validation phase of the host protocol's loop.
  static constexpr obs::PhaseId kPhase = obs::PhaseId::kFingerprintValidation;

  /// `session` disambiguates instances; `kind` is the host protocol's
  /// message kind for validator traffic, sent at its row's width in `ctx`.
  Validator(const CommitteeView& view, std::size_t my_index,
            std::uint64_t session, sim::wire::Kind kind,
            const sim::wire::WireContext& ctx, ValidatorValue input);

  void send(std::uint32_t step, sim::Outbox& out) override;
  bool receive(std::uint32_t step,
               sim::InboxView inbox) override;

  bool same() const { return same_; }
  const ValidatorValue& output() const { return out_; }
  static constexpr std::uint32_t total_steps() { return 2; }

 private:
  enum SubKind : std::uint64_t { kPropose = 0, kVote = 1 };

  const CommitteeView& view_;
  std::size_t my_index_;
  std::uint64_t session_;
  sim::MsgKind kind_;
  sim::WireBits message_bits_;  ///< kind_'s row width, computed once
  std::uint32_t tolerated_;

  ValidatorValue in_;
  std::optional<ValidatorValue> vote_;  // nullopt = bottom
  bool same_ = false;
  ValidatorValue out_;

  // Per-receive scratch (member so the hot path never allocates): sender
  // dedup flags and the key-sorted (value, count) tally. Keeping the tally
  // sorted preserves the key-order iteration the quorum checks rely on.
  std::vector<char> heard_;
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, std::size_t>>
      counts_;
};

}  // namespace renaming::consensus
