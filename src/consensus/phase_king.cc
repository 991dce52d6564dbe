#include "consensus/phase_king.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace renaming::consensus {

namespace {

constexpr std::uint64_t kBottom = 2;  // "no proposal" marker

}  // namespace

PhaseKing::PhaseKing(const CommitteeView& view, std::size_t my_index,
                     std::uint64_t session, sim::wire::Kind kind,
                     const sim::wire::WireContext& ctx, bool input)
    : view_(view),
      my_index_(my_index),
      session_(session),
      kind_(sim::wire::raw(kind)),
      message_bits_(sim::wire::wire_bits(kind, ctx)),
      tolerated_(view.max_tolerated()),
      value_(input),
      heard_(view.size(), 0) {
  RENAMING_CHECK(my_index_ < view_.size(),
                 "phase-king participant must be a view member");
}

void PhaseKing::send(std::uint32_t step, sim::Outbox& out) {
  const std::uint32_t phase = step / 3;
  switch (step % 3) {
    case 0:
      // Vote round: everyone broadcasts its current value.
      broadcast_to_committee(
          view_, out,
          sim::make_message(kind_, message_bits_, session_,
                            static_cast<std::uint64_t>(kVote),
                            static_cast<std::uint64_t>(value_)));
      break;
    case 1:
      // Proposal round: propose a value only if it had >= m - t votes.
      broadcast_to_committee(
          view_, out,
          sim::make_message(kind_, message_bits_, session_,
                            static_cast<std::uint64_t>(kPropose),
                            proposal_));
      break;
    case 2:
      // King round: the phase-th member (id order) broadcasts its value.
      if (phase == my_index_) {
        broadcast_to_committee(
            view_, out,
            sim::make_message(kind_, message_bits_, session_,
                              static_cast<std::uint64_t>(kKing),
                              static_cast<std::uint64_t>(value_)));
      }
      break;
  }
}

bool PhaseKing::receive(std::uint32_t step,
                        sim::InboxView inbox) {
  const std::uint32_t phase = step / 3;
  const std::size_t m = view_.size();
  const std::size_t quorum = m - tolerated_;

  // Tally one message per view member (first wins) for the given subkind.
  // The dedup scratch is a member: this runs once per member per committee
  // round, so a per-call allocation would dominate the whole protocol.
  auto tally = [&](std::uint64_t subkind, std::size_t counts[3]) {
    std::fill(heard_.begin(), heard_.end(), 0);
    counts[0] = counts[1] = counts[2] = 0;
    for (const sim::Message& msg : inbox) {
      if (msg.kind != kind_ || msg.nwords < 3) continue;
      if (msg.w[0] != session_ || msg.w[1] != subkind) continue;
      const std::size_t idx = view_.index_of_link(msg.sender);
      if (idx == CommitteeView::npos || heard_[idx] != 0) continue;
      heard_[idx] = 1;
      ++counts[msg.w[2] <= 1 ? msg.w[2] : kBottom];
    }
  };

  switch (step % 3) {
    case 0: {
      std::size_t votes[3];
      tally(kVote, votes);
      proposal_ = kBottom;
      if (votes[0] >= quorum) proposal_ = 0;
      if (votes[1] >= quorum) proposal_ = 1;
      return false;
    }
    case 1: {
      std::size_t proposals[3];
      tally(kPropose, proposals);
      // At most one value can carry a correct proposal when m > 3t, so a
      // value with >= t+1 proposals is unique and correct-backed.
      strong_ = false;
      for (std::uint64_t b : {std::uint64_t{0}, std::uint64_t{1}}) {
        if (proposals[b] >= tolerated_ + 1) {
          value_ = (b == 1);
          strong_ = proposals[b] >= quorum;
        }
      }
      return false;
    }
    case 2: {
      std::optional<bool> king_value;
      const NodeIndex king_link = view_.member(phase).link;
      for (const sim::Message& msg : inbox) {
        if (msg.kind != kind_ || msg.nwords < 3) continue;
        if (msg.w[0] != session_ || msg.w[1] != kKing) continue;
        if (msg.sender != king_link) continue;
        if (!king_value.has_value()) king_value = (msg.w[2] & 1) != 0;
      }
      // Keep the value only with unassailable support; otherwise defer to
      // the king (an absent king counts as 0).
      if (!strong_) value_ = king_value.value_or(false);
      return phase == tolerated_;  // done after all t+1 phases
    }
  }
  return false;
}

}  // namespace renaming::consensus
