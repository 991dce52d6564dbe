// Early-deciding all-to-all crash renaming, in the spirit of Alistarh,
// Attiya, Guerraoui & Travers [2] (Table 1 row 3): round complexity scales
// with the number of failures that actually happen, not with n.
//
// Mechanism (the classic clean-round argument): every round, every node
// broadcasts its cumulative set of known identities (an Omega(n log N)-bit
// message, like [2]'s). Nodes union what they receive and track the set of
// senders heard this round. A round in which (a) no sender disappeared
// relative to the previous round and (b) the node's own identity set did
// not grow is *clean*: every node alive at its end received the same
// unions, so all alive nodes hold identical sets and can decide their rank
// immediately. Each dirty round consumes at least one crash, so a node
// decides by round f + 2. ([2] gets O(log f) with a cleverer doubling
// structure; this reproduction keeps the early-deciding *shape* — rounds
// tracking f — which is the property Table 1 credits it for.)
//
// Caveat matching the model: a sender that crashes mid-broadcast can be
// heard by some nodes and not others in its final round; such a sender is
// observed as "disappeared" by everyone no later than the following round,
// so it dirties at most two rounds — the f + O(1) bound stands.
#pragma once

#include <memory>
#include <vector>

#include "core/system.h"
#include "core/verifier.h"
#include "sim/adversary.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/stats.h"

namespace renaming::baselines {

struct EarlyDecidingRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
  Round max_decision_round = 0;  ///< latest round at which a node decided
};

/// `observers.telemetry` attributes all traffic to the baseline-exchange
/// phase.
EarlyDecidingRunResult run_early_deciding_renaming(
    const SystemConfig& cfg,
    std::unique_ptr<sim::CrashAdversary> adversary = nullptr,
    sim::Observers observers = {});

}  // namespace renaming::baselines
