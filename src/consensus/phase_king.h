// Binary consensus via the phase-king protocol (Berman–Garay–Perry),
// providing the interface of Lemma 3.4: validity + agreement among the
// correct members of the committee view, tolerating t < m/3 Byzantine
// members in 3(t+1) rounds with O(m^2) messages per round (O(m^3) total).
//
// Each phase has three rounds: a vote round (values with >= m - t votes
// become proposals), a proposal round (a value with >= t + 1 proposals is
// adopted — at most one value can be correct-backed when m > 3t — and
// >= m - t proposals lock it), and a king round (members without a locked
// value defer to the phase's king). The two-round folklore variant only
// tolerates t < m/4; the split-vote attack in consensus_test.cc breaks it
// and is the regression test for this implementation.
//
// Kings are scheduled by position in the id-ordered member list, which is
// identical at every correct member (announcements are broadcast; see
// DESIGN.md "Faithfulness and substitutions"), so after the first phase
// whose king is correct, all correct members agree and the standard
// persistence argument keeps them agreed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "consensus/committee.h"
#include "consensus/subprotocol.h"
#include "obs/phase.h"
#include "sim/message.h"
#include "sim/wire_schema.h"

namespace renaming::consensus {

class PhaseKing final : public SubProtocol {
 public:
  /// Central phase-id table entry (obs/phase.h): every PhaseKing instance
  /// of the host protocol's loop is attributed to the consensus phase.
  static constexpr obs::PhaseId kPhase = obs::PhaseId::kConsensus;

  /// `session` disambiguates instances; `kind` is the host protocol's
  /// message kind for consensus traffic, sent at its row's width in `ctx`.
  PhaseKing(const CommitteeView& view, std::size_t my_index,
            std::uint64_t session, sim::wire::Kind kind,
            const sim::wire::WireContext& ctx, bool input);

  void send(std::uint32_t step, sim::Outbox& out) override;
  bool receive(std::uint32_t step,
               sim::InboxView inbox) override;

  bool output() const { return value_; }
  std::uint32_t total_steps() const { return 3 * (tolerated_ + 1); }

 private:
  enum SubKind : std::uint64_t { kVote = 0, kPropose = 1, kKing = 2 };

  const CommitteeView& view_;
  std::size_t my_index_;
  std::uint64_t session_;
  sim::MsgKind kind_;
  sim::WireBits message_bits_;  ///< kind_'s row width, computed once
  std::uint32_t tolerated_;

  bool value_;
  std::uint64_t proposal_ = 2;  // 2 = bottom ("no proposal")
  bool strong_ = false;         // value locked by >= m - t proposals
  std::vector<char> heard_;     // per-tally scratch, sized to the view
};

}  // namespace renaming::consensus
