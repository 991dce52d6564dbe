// All-to-all Byzantine renaming baseline in the style of Okun, Barak &
// Gafni [34]: O(log n) rounds of all-to-all exchange where each message
// carries the sender's full candidate vector — Omega(n log N)-bit messages,
// hence O~(n^2) messages and O~(n^3) bits. This is the cost profile row of
// Table 1 the paper's Byzantine algorithm is compared against.
//
// Structure:
//   round 1            broadcast own identity (authenticated).
//   round 2            broadcast the directly-witnessed identity vector;
//                      accept an identity iff >= t+1 vectors contain it
//                      (some correct witness heard it first-hand).
//   round 3            broadcast the filtered vector; accept iff a majority
//                      (> n/2) of vectors contain it.
//   rounds 4..3+log n  interval-halving confirmation rounds, each carrying
//                      the full candidate vector (the Omega(n)-bit messages
//                      characteristic of [34]).
//
// Scope note (DESIGN.md): [34] achieves agreement on the candidate set via
// stable vectors; this reproduction keeps its cost shape and defeats the
// Byzantine strategies implemented in this repository (silence, split
// reporting, identity forgery), but full stable-vector agreement under
// unbounded equivocation is out of scope — the paper under reproduction
// only competes with [34] on cost.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "core/system.h"
#include "core/verifier.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/stats.h"

namespace renaming::baselines {

struct ObgRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
  /// True when the run was accounted in closed form instead of simulated
  /// (docs/PERFORMANCE.md §10); only failure-free runs qualify.
  bool closed_form = false;
};

/// Byzantine behaviours for the baseline run.
enum class ObgByzBehaviour {
  kSilent,        ///< Byzantine nodes say nothing at all
  kSplitAnnounce, ///< announce identity to only half of the nodes
  kForgeIds,      ///< pad vectors with phantom identities
};

/// Every index in `byzantine` must be < n and listed once.
/// `observers.telemetry` attributes all traffic to the baseline-exchange
/// phase.
///
/// `closed_form_cutoff` (0 = never): at n >= cutoff, a run with NO
/// Byzantine nodes and no trace, journal or provenance attached is
/// accounted in closed form — see run_cht_renaming; the exact-equivalence
/// contract is identical.
ObgRunResult run_obg_renaming(const SystemConfig& cfg,
                              const std::vector<NodeIndex>& byzantine = {},
                              ObgByzBehaviour behaviour =
                                  ObgByzBehaviour::kSplitAnnounce,
                              NodeIndex closed_form_cutoff = 0,
                              sim::Observers observers = {});

}  // namespace renaming::baselines
