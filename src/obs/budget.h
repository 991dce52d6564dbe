// Theory-budget auditor (docs/OBSERVABILITY.md).
//
// The paper's evaluation is a set of complexity envelopes — Theorem 1.2
// bounds the crash algorithm, Theorem 1.3 the Byzantine one, and Table 1
// gives the quadratic baselines they are compared against. This module
// turns those closed forms into machine-checkable budgets: audit_run()
// takes (algorithm, n, f, N, constants), evaluates the envelopes, and
// compares them against a measured RunStats (plus, when a Telemetry object
// is supplied, the per-phase ledgers), reporting per-quantity and
// per-phase headroom.
//
// Calibration: asymptotic envelopes need constants. Each is derived either
// from the implementation's own caps (rounds mirror the run_* max_rounds
// formulas exactly) or from the measured bands recorded in EXPERIMENTS.md
// with >= 3x headroom, so the auditor is a regression tripwire for
// order-of-magnitude blowups, not a tight certificate. The `slack` factor
// scales every envelope; CI runs with slack = 1.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "sim/stats.h"

namespace renaming::obs {

struct BudgetParams {
  /// One of: "crash", "byz", "byz-full" (ablation A2), "naive", "cht",
  /// "obg", "early", "claiming".
  std::string algorithm;
  std::uint64_t n = 0;
  /// Fault budget: crash budget for crash-model runs, |B| for Byzantine.
  std::uint64_t f = 0;
  std::uint64_t namespace_size = 0;
  /// CrashParams::election_constant or ByzParams::pool_constant; <= 0
  /// selects the same paper defaults the protocol parameters do.
  double committee_constant = 0.0;
  /// CrashParams::phase_multiplier (crash only).
  std::uint32_t phase_multiplier = 3;
  /// Multiplies every envelope; 1.0 = the calibrated budgets as-is.
  double slack = 1.0;
};

/// Per-kind ledger cell: total traffic charged to one message kind. The
/// auditor cross-checks these against the sim/wire_schema.h closed forms
/// (see audit_run below); Telemetry and the journal both produce them.
struct KindTotals {
  sim::MsgKind kind = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

/// One audited quantity: measured value vs. its envelope.
struct BudgetLine {
  std::string quantity;
  double measured = 0.0;
  double budget = 0.0;
  bool ok = false;
  /// Fraction of the budget left unused (1 = untouched, < 0 = violated).
  double headroom() const {
    return budget > 0.0 ? 1.0 - measured / budget : (measured == 0 ? 1 : -1);
  }
};

struct BudgetReport {
  std::string algorithm;
  std::vector<BudgetLine> lines;

  bool ok() const {
    for (const BudgetLine& l : lines) {
      if (!l.ok) return false;
    }
    return true;
  }
  /// Multi-line human-readable table (one line per quantity).
  std::string summary() const;
};

/// Audits one finished run. With a Telemetry object the report also gains
/// per-phase message/bit budgets, the double-entry attribution check
/// (per-phase ledgers must sum exactly to the RunStats totals), and — on
/// honest-wire runs (crash-model algorithms always; the Byzantine family
/// only at f = 0, since adversarial strategies put self-declared widths on
/// the wire) — exact per-kind wire-schema lines: every fixed-layout kind's
/// accumulated bits must equal messages * wire_bits(kind) from
/// sim/wire_schema.h. Variable-width (bulk identity-set) kinds are bounded
/// by tests/wire_schema_test.cc instead, since their width depends on
/// per-message payload counts the ledgers do not retain.
BudgetReport audit_run(const BudgetParams& params, const sim::RunStats& stats,
                       const Telemetry* telemetry = nullptr);

/// Same audit, but with the per-phase and per-kind ledgers supplied
/// directly. The doctor uses this to audit a deserialized journal (whose
/// ledgers are re-derived via sim::canonical_phase and
/// doctor.h:kinds_from_journal) with no Telemetry object in sight. A null
/// `kinds` skips the wire-schema lines.
BudgetReport audit_run(const BudgetParams& params, const sim::RunStats& stats,
                       const std::array<PhaseTotals, kPhaseCount>& phases,
                       const std::vector<KindTotals>* kinds = nullptr);

/// One named additive piece of an algorithm's message envelope, with slack
/// NOT applied (these are the raw theorem terms).
struct EnvelopeTerm {
  std::string name;
  double value = 0.0;
};

/// Decomposes the algorithm's message envelope into its named theorem
/// terms so a diagnosis can say WHICH term dominates the budget. For
/// "byz"/"byz-full" the envelope is max(theorem shape, sum of the four
/// structural terms); for everything else it is the sum of the returned
/// terms. The largest value is the dominating term. No terms: the
/// algorithm has no budget (audit_run aborts on it).
std::vector<EnvelopeTerm> message_envelope_terms(const BudgetParams& params);

}  // namespace renaming::obs
