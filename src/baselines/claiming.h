// Randomized slot-claiming renaming, inspired by the balls-into-bins idea
// behind Alistarh, Denysyuk, Rodrigues & Shavit's balls-into-leaves [3]
// (Table 1 row 4). All-to-all and randomized:
//
//   each round, every undecided node broadcasts CLAIM(slot) for a uniformly
//   random slot it believes free; the slot goes to the alive claimant with
//   the smallest original identity. Owners broadcast OWNED(slot) every
//   round; a slot with no live OWNED heartbeat returns to the pool, so
//   slots grabbed by nodes that crashed mid-claim are recycled.
//
// Safety: two alive claimants of the same slot always see each other
// (partial delivery happens only to crashing senders), so at most one
// alive node wins any slot; ghosts can only demote winners, never promote.
// Expected rounds are O(log n) (a constant fraction of the undecided nodes
// wins each round); [3]'s full tree structure gets O(log log f) — this
// reproduction keeps the randomized all-to-all *profile* of that row, and
// EXPERIMENTS.md reports the measured gap.
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

struct ClaimingRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
};

/// `observers.telemetry` attributes all traffic to the baseline-exchange
/// phase.
ClaimingRunResult run_claiming_renaming(
    const SystemConfig& cfg,
    std::unique_ptr<sim::CrashAdversary> adversary = nullptr,
    sim::Observers observers = {});

}  // namespace renaming::baselines
