#include "consensus/validator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace renaming::consensus {

using ValueKey = std::pair<std::uint64_t, std::uint64_t>;

Validator::Validator(const CommitteeView& view, std::size_t my_index,
                     std::uint64_t session, sim::wire::Kind kind,
                     const sim::wire::WireContext& ctx, ValidatorValue input)
    : view_(view),
      my_index_(my_index),
      session_(session),
      kind_(sim::wire::raw(kind)),
      message_bits_(sim::wire::wire_bits(kind, ctx)),
      tolerated_(view.max_tolerated()),
      in_(input),
      out_(input),
      heard_(view.size(), 0) {
  RENAMING_CHECK(my_index_ < view_.size(),
                 "validator participant must be a view member");
}

void Validator::send(std::uint32_t step, sim::Outbox& out) {
  if (step == 0) {
    broadcast_to_committee(
        view_, out,
        sim::make_message(kind_, message_bits_, session_,
                          static_cast<std::uint64_t>(kPropose), in_.a, in_.b));
  } else {
    // Vote round; an explicit "bottom" flag marks the no-quorum case.
    const std::uint64_t has = vote_.has_value() ? 1 : 0;
    const ValidatorValue v = vote_.value_or(ValidatorValue{});
    broadcast_to_committee(
        view_, out,
        sim::make_message(kind_, message_bits_, session_,
                          static_cast<std::uint64_t>(kVote), has, v.a, v.b));
  }
}

bool Validator::receive(std::uint32_t step,
                        sim::InboxView inbox) {
  const std::size_t m = view_.size();
  const std::size_t quorum = m - tolerated_;

  // Key-sorted tally insert: at most m distinct values, so a lower_bound
  // into a reused vector beats a node-based map; iteration stays in key
  // order, which the "first value reaching quorum" checks depend on.
  auto bump = [&](ValueKey key) {
    const auto it = std::lower_bound(
        counts_.begin(), counts_.end(), key,
        [](const auto& entry, const ValueKey& k) { return entry.first < k; });
    if (it != counts_.end() && it->first == key) {
      ++it->second;
    } else {
      counts_.insert(it, {key, 1});
    }
  };

  std::fill(heard_.begin(), heard_.end(), 0);
  counts_.clear();

  if (step == 0) {
    for (const sim::Message& msg : inbox) {
      if (msg.kind != kind_ || msg.nwords < 4) continue;
      if (msg.w[0] != session_ || msg.w[1] != kPropose) continue;
      const std::size_t idx = view_.index_of_link(msg.sender);
      if (idx == CommitteeView::npos || heard_[idx] != 0) continue;
      heard_[idx] = 1;
      bump({msg.w[2], msg.w[3]});
    }
    vote_.reset();
    for (const auto& [key, count] : counts_) {
      if (count >= quorum) {
        vote_ = ValidatorValue{key.first, key.second};
        break;  // at most one value can reach m - t support
      }
    }
    return false;
  }

  // Step 1: tally votes.
  for (const sim::Message& msg : inbox) {
    if (msg.kind != kind_ || msg.nwords < 5) continue;
    if (msg.w[0] != session_ || msg.w[1] != kVote) continue;
    if (msg.w[2] == 0) continue;  // bottom votes carry no value
    const std::size_t idx = view_.index_of_link(msg.sender);
    if (idx == CommitteeView::npos || heard_[idx] != 0) continue;
    heard_[idx] = 1;
    bump({msg.w[3], msg.w[4]});
  }

  same_ = false;
  out_ = in_;
  // Prefer the strongest supported value (earliest key wins ties, exactly
  // as the ordered-map scan did).
  std::size_t best = counts_.size();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (best == counts_.size() || counts_[i].second > counts_[best].second) {
      best = i;
    }
  }
  if (best != counts_.size()) {
    const auto& [key, count] = counts_[best];
    if (count >= quorum) {
      same_ = true;
      out_ = ValidatorValue{key.first, key.second};
    } else if (count >= tolerated_ + 1) {
      // At least one correct member voted it; with m > 3t, at most one
      // value can have a correct voter, so this choice is consistent.
      out_ = ValidatorValue{key.first, key.second};
    }
  }
  return true;
}

}  // namespace renaming::consensus
