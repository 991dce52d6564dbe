// All-to-all interval-halving crash-resilient renaming, in the style of
// Chaudhuri–Herlihy–Tuttle [15] / Okun [32]: every node broadcasts its
// <identity, interval> each phase and applies the rank-based halving rule
// to itself from its own view. Since all alive nodes halve every phase,
// depths stay uniform and no committee machinery is needed; the price is
// n^2 messages per round — the Table 1 rows the paper's crash algorithm is
// compared against (O(log n) rounds, O~(n^2) messages/bits, strong).
//
// Ghost statuses from senders that crash mid-broadcast can only inflate a
// survivor's perceived rank (pushing it toward top); the capacity argument
// of Lemma 2.3 specialises to this all-to-all setting, so the outcome is
// still collision-free — the test suite hammers it with mid-send crash
// adversaries to confirm.
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

struct ChtRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
  /// True when the run was accounted in closed form instead of simulated
  /// (docs/PERFORMANCE.md §10): exact same RunStats/outcomes/telemetry as
  /// the failure-free execution, no O(n^2) event loop.
  bool closed_form = false;
};

/// `observers.telemetry` attributes all traffic to the baseline-exchange
/// phase (baselines have no sub-phase structure worth spans).
///
/// `closed_form_cutoff` (0 = never): at n >= cutoff, a *failure-free* run
/// (null adversary or zero budget) with no journal attached is accounted in
/// closed form — the deterministic all-to-all execution is computed, not
/// simulated, producing bit-for-bit the RunStats, outcomes, telemetry
/// ledgers and heartbeat records the engine would (pinned by
/// tests/closed_form_test.cc), so the Theorem envelopes in obs::audit_run
/// still gate million-node bench cells. The shard profile sees every round
/// as one shard.
/// Runs with failures, with a trace or a journal (whose records and
/// fingerprints require real deliveries), or with a provenance recorder
/// (whose causal events require real decisions) always simulate.
ChtRunResult run_cht_renaming(
    const SystemConfig& cfg,
    std::unique_ptr<sim::CrashAdversary> adversary = nullptr,
    NodeIndex closed_form_cutoff = 0, sim::Observers observers = {});

}  // namespace renaming::baselines
