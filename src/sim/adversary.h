// Adversary interfaces: adaptive crash adversary "Eve" and the static
// Byzantine placement used by "Carlo".
//
// Eve (Section 1): an adaptive, full-information adversary that may use the
// entire execution history to decide which nodes crash and when — including
// mid-send, in which case she chooses the subset of the victim's current
// outbox that still escapes. The engine consults her once per round, after
// all send phases have produced their outboxes but before delivery; because
// she sees the complete outboxes and all node state, this is the
// full-information adversary of the paper at round granularity.
//
// Carlo (Section 1): a static adversary that picks the Byzantine set before
// activation. Byzantine behaviour itself is expressed by substituting
// arbitrary Node implementations (see byzantine strategies in
// src/byzantine/strategies.h); authentication is enforced by the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/prng.h"
#include "common/types.h"
#include "sim/node.h"
#include "sim/outbox_table.h"

namespace renaming::sim {

/// Read-only view of the execution the crash adversary may inspect.
///
/// Outboxes are stored compressed: a broadcast, a multicast or a run of
/// identical sends is one entry. Adversaries that reason about individual
/// (dest, message) sends read them with Outbox::for_each_copy(), whose
/// index space (Outbox::size() copies, a broadcast's recipients 0..n-1 in
/// order) is the one CrashOrder::keep addresses. A node that queued
/// nothing this round (and so may have no outbox allocated) presents as an
/// empty outbox (OutboxTable::peek).
struct AdversaryView {
  Round round = 0;
  NodeIndex n = 0;
  const std::vector<bool>* alive = nullptr;
  const OutboxTable* outboxes = nullptr;             // this round's sends
  const std::vector<std::unique_ptr<Node>>* nodes = nullptr;  // full state

  bool is_alive(NodeIndex v) const { return (*alive)[v]; }
  const Node& node(NodeIndex v) const { return *(*nodes)[v]; }
  const Outbox& outbox(NodeIndex v) const { return outboxes->peek(v); }
};

/// One crash order: victim plus the indices (into its per-recipient copy
/// sequence, Outbox::for_each_copy() order; a broadcast counts n copies) of
/// the messages that are still delivered, in any order, none twice. The
/// engine applies it with Outbox::keep(). An empty keep list is a crash
/// "before sending anything"; a full list is a crash "after sending".
struct CrashOrder {
  NodeIndex victim = kNoNode;
  std::vector<std::uint32_t> keep;
};

class CrashAdversary {
 public:
  virtual ~CrashAdversary() = default;

  /// Called once per round. Return the crash orders for this round; nodes
  /// not mentioned stay alive and deliver their full outboxes.
  virtual std::vector<CrashOrder> decide(const AdversaryView& view) = 0;

  /// Total crash budget the adversary is allowed to spend (f upper bound).
  virtual std::uint64_t budget() const = 0;
};

/// No failures at all.
class NoCrashAdversary final : public CrashAdversary {
 public:
  std::vector<CrashOrder> decide(const AdversaryView&) override { return {}; }
  std::uint64_t budget() const override { return 0; }
};

/// Crashes each alive node independently with a per-round probability until
/// the budget is exhausted; each victim's surviving outbox prefix is random.
/// A generic "background failures" model.
class RandomCrashAdversary final : public CrashAdversary {
 public:
  RandomCrashAdversary(std::uint64_t budget, double per_round_prob,
                       std::uint64_t seed)
      : budget_(budget), prob_(per_round_prob), rng_(seed) {}

  std::vector<CrashOrder> decide(const AdversaryView& view) override {
    std::vector<CrashOrder> orders;
    for (NodeIndex v = 0; v < view.n && spent_ < budget_; ++v) {
      if (!view.is_alive(v) || !rng_.chance(prob_)) continue;
      CrashOrder o;
      o.victim = v;
      const auto total = view.outbox(v).size();
      const std::uint64_t kept = rng_.below(total + 1);
      o.keep.reserve(kept);
      for (std::uint32_t i = 0; i < kept; ++i) o.keep.push_back(i);
      orders.push_back(std::move(o));
      ++spent_;
    }
    return orders;
  }

  std::uint64_t budget() const override { return budget_; }

 private:
  std::uint64_t budget_;
  double prob_;
  Xoshiro256 rng_;
  std::uint64_t spent_ = 0;
};

/// The strongest generic Eve in the repository: crashes arbitrary nodes at
/// arbitrary times and lets an *arbitrary subset* (not just a prefix) of
/// each victim's outbox escape — the full "crash in the middle of sending
/// a message" power of the model. Used by the fuzz suites.
class ChaosCrashAdversary final : public CrashAdversary {
 public:
  ChaosCrashAdversary(std::uint64_t budget, double per_round_prob,
                      std::uint64_t seed)
      : budget_(budget), prob_(per_round_prob), rng_(seed ^ 0xC4405ULL) {}

  std::vector<CrashOrder> decide(const AdversaryView& view) override {
    std::vector<CrashOrder> orders;
    for (NodeIndex v = 0; v < view.n && spent_ < budget_; ++v) {
      if (!view.is_alive(v) || !rng_.chance(prob_)) continue;
      CrashOrder o;
      o.victim = v;
      const std::size_t total = view.outbox(v).size();
      for (std::uint32_t i = 0; i < total; ++i) {
        if (rng_.chance(0.5)) o.keep.push_back(i);
      }
      orders.push_back(std::move(o));
      ++spent_;
    }
    return orders;
  }

  std::uint64_t budget() const override { return budget_; }

 private:
  std::uint64_t budget_;
  double prob_;
  Xoshiro256 rng_;
  std::uint64_t spent_ = 0;
};

}  // namespace renaming::sim
