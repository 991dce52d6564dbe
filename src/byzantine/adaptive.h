// Adaptive-corruption experiment (Section 3.2 discussion).
//
// The paper: "The assumption that the adversary is non-adaptive seems
// critical for the committee based approach. Specifically, an adaptive
// adversary can start acting maliciously after the committee has been
// elected, violating the key property that most of the committee members
// are correct."
//
// This module reproduces that observation as a negative experiment. A
// TurncoatNode runs the honest protocol until an AdaptiveController —
// which, like the protocol's adversary, sees who announced committee
// membership — tells it to turn; from then on it goes silent (the simplest
// deviation, already enough). The controller corrupts *committee members
// only*, up to its budget, right after the election round.
//
// Expected outcomes, both test-asserted:
//  * budget >= committee size: every member turns, nobody distributes NEW
//    messages, no correct node ever decides — the run fails.
//  * static Carlo with the same budget (corrupting before the election,
//    i.e. hitting mostly non-members): the run succeeds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "core/directory.h"
#include "sim/node.h"

namespace renaming::byzantine {

/// Shared decision state: which nodes have been adaptively corrupted.
class AdaptiveController {
 public:
  explicit AdaptiveController(std::uint64_t budget) : budget_(budget) {}

  /// Called by each TurncoatNode right after the election round resolves;
  /// the controller corrupts members first-come-first-served up to budget.
  /// (Every correct node resolves the same round, so "first come" is the
  /// engine's node order — deterministic.)
  bool try_corrupt_member(NodeIndex v) {
    if (spent_ >= budget_) return false;
    ++spent_;
    corrupted_.push_back(v);
    return true;
  }

  std::uint64_t spent() const { return spent_; }
  const std::vector<NodeIndex>& corrupted() const { return corrupted_; }

 private:
  std::uint64_t budget_;
  std::uint64_t spent_ = 0;
  std::vector<NodeIndex> corrupted_;
};

/// Honest until told otherwise; silent afterwards.
class TurncoatNode final : public sim::Node {
 public:
  TurncoatNode(NodeIndex self, const SystemConfig& cfg,
               const Directory& directory, const ByzParams& params,
               consensus::ViewInterner& views, AdaptiveController& controller)
      : self_(self),
        honest_(self, cfg, directory, params, views),
        controller_(&controller) {}

  void send(Round round, sim::Outbox& out) override {
    if (turned_) return;  // silence: the minimal Byzantine deviation
    honest_.send(round, out);
  }

  void receive(Round round, sim::InboxView inbox) override {
    if (turned_) return;
    honest_.receive(round, inbox);
    // The election resolves during the round-1 receive; the adaptive
    // adversary strikes the moment membership becomes visible.
    if (round == 1 && honest_.elected() &&
        controller_->try_corrupt_member(self_)) {
      turned_ = true;
    }
  }

  bool done() const override { return turned_ || honest_.done(); }

  /// Turned nodes are silent forever; otherwise defer to the honest state
  /// machine (its round-1 election hook runs before it can ever be idle).
  bool idle() const override { return turned_ || honest_.idle(); }

  bool turned() const { return turned_; }
  const ByzNode& honest() const { return honest_; }

 private:
  NodeIndex self_;
  ByzNode honest_;
  AdaptiveController* controller_;
  bool turned_ = false;
};

struct AdaptiveRunResult {
  sim::RunStats stats;
  VerifyReport report;
  std::uint64_t corrupted = 0;      ///< members the controller turned
  std::uint64_t committee_size = 0; ///< members elected (any node's view)
};

/// Runs the Byzantine renaming where EVERY node is a potential turncoat
/// and the adaptive adversary corrupts up to `budget` committee members
/// the instant they are elected. Unobserved, and always serial:
/// try_corrupt_member is first-come-first-served in engine node order,
/// deliberately order-dependent cross-node state that a shard-parallel
/// receive phase would both race on and reorder.
AdaptiveRunResult run_adaptive_experiment(const SystemConfig& cfg,
                                          const ByzParams& params,
                                          std::uint64_t budget,
                                          Round max_rounds = 0);

}  // namespace renaming::byzantine
