// Diagnosis on flight-recorder journals (docs/OBSERVABILITY.md §7).
//
// Pure library logic — the doctor returns structured verdicts plus
// pre-rendered explanation strings and never touches a stream itself, so
// src/ keeps the R8 "no terminal bytes" invariant; the renaming_doctor CLI
// (tools/) owns all printing.
//
// Four diagnoses:
//   * diagnose_divergence(a, b): bisects the chained per-round digests to
//     the FIRST divergent round, then drills into that round's kind/count/
//     event deltas and explains what changed (or that only the payload
//     fingerprint moved — same volume, different contents/order).
//   * diagnose_audit(params, journal): re-runs the BudgetAuditor on stats
//     and per-phase ledgers reconstructed from the journal (via the
//     message-kind table), ranks phases by envelope overshoot with a
//     per-round traffic breakdown, and names the dominating theorem term.
//   * diagnose_why(provenance, node): renders node v's causal chain from
//     initial ID to final name, expanding retained cause events and
//     attributing wire-schema bits to every hop.
//   * diagnose_blame(provenance): ranks faulty nodes (marked Byzantine or
//     caught spoofing) by the bits their messages induced downstream —
//     turning a budget-audit overshoot into a named culprit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/budget.h"
#include "obs/journal.h"
#include "obs/provenance.h"
#include "sim/stats.h"

namespace renaming::obs {

/// Per-kind traffic difference at the first divergent round.
struct KindDelta {
  sim::MsgKind kind = 0;
  std::uint64_t a_messages = 0, b_messages = 0;
  std::uint64_t a_bits = 0, b_bits = 0;
};

struct DivergenceReport {
  /// The values are `renaming_doctor diff`'s exit codes.
  enum class Verdict : std::uint8_t {
    kIdentical = 0,
    kDiverged = 1,
    kIncomparable = 2,  ///< different system / no overlapping rounds
  };
  Verdict verdict = Verdict::kIdentical;
  Round first_divergent_round = 0;
  /// Chain-digest comparisons the bisection spent (log2 of the overlap).
  std::size_t probes = 0;
  /// True when every count at the divergent round matches and only the
  /// delivery fingerprint differs: same traffic volume, different payload,
  /// ordering or destination contents.
  bool counts_match = false;
  std::vector<KindDelta> kind_deltas;  ///< kinds whose counts differ
  std::string explanation;             ///< human-readable, multi-line

  bool diverged() const { return verdict == Verdict::kDiverged; }
};

/// Compares two journals (live or deserialized). Journals with different
/// algorithm/n or without a common round range are kIncomparable.
DivergenceReport diagnose_divergence(const JournalData& a,
                                     const JournalData& b);

/// One phase's standing against its envelope, with the round-level shape
/// of its traffic.
struct PhaseBreakdown {
  PhaseId phase = PhaseId::kUnattributed;
  double measured = 0.0;
  double budget = 0.0;
  double overshoot = 0.0;  ///< measured / budget (> 1 = violated)
  bool violated = false;
  Round peak_round = 0;
  std::uint64_t peak_messages = 0;
  /// Minimal contiguous round window carrying >= 90% of the phase traffic.
  Round window_begin = 0, window_end = 0;
  std::uint64_t window_messages = 0;
};

struct AuditDiagnosis {
  bool ok = true;
  std::string error;  ///< set (and nothing else) when no audit could run
  BudgetReport report;                 ///< the underlying audit
  std::vector<PhaseBreakdown> phases;  ///< violated first, by overshoot
  std::string dominant_term;           ///< largest message-envelope term
  double dominant_term_value = 0.0;
  std::string explanation;             ///< human-readable, multi-line
};

/// Audits the journalled run against `params` and explains the verdict. A
/// bounded-ring journal, n = 0 or an algorithm without a budget sets error.
AuditDiagnosis diagnose_audit(const BudgetParams& params,
                              const JournalData& journal);

/// Engine-equivalent RunStats reconstructed from a complete journal
/// (byzantine count is not journalled and stays 0; the auditor ignores it).
sim::RunStats stats_from_journal(const JournalData& data);

/// Per-phase ledgers re-derived through sim::canonical_phase (the
/// message-kind table in sim/wire_schema.h) — identical to what a live
/// Telemetry would have accumulated on the same run, because Telemetry
/// seeds its attribution from the same rows.
std::array<PhaseTotals, kPhaseCount> phases_from_journal(
    const JournalData& data);

/// Per-kind run totals folded from the journal's per-round kind rows
/// (ascending by kind) — feeds the auditor's wire-schema cross-check.
std::vector<KindTotals> kinds_from_journal(const JournalData& data);

/// `renaming_doctor why --node v`: the causal chain behind node v's
/// decisions, from its first retained event to its final name claim.
struct WhyReport {
  bool found = false;         ///< node has at least one retained event
  bool watched = true;        ///< false = node outside the watch-set
  NodeIndex node = kNoNode;
  NewId final_name = kNoNewId;  ///< last name-claim payload, if any
  std::size_t chain_events = 0;
  std::uint64_t cause_bits = 0;  ///< wire bits across all rendered hops
  std::string explanation;       ///< human-readable, multi-line
};

WhyReport diagnose_why(const ProvenanceData& data, NodeIndex node);

/// One faulty node's ranked influence on the run.
struct BlameEntry {
  NodeIndex node = kNoNode;
  std::uint64_t direct_bits = 0;  ///< wire bits of its decision-feeding
                                  ///< deliveries + rejected forgeries
  std::uint64_t spoof_bits = 0;   ///< subset from spoof rejections
  std::uint64_t spoof_events = 0;
  std::uint64_t downstream_events = 0;  ///< decisions transitively reached
};

struct BlameReport {
  /// Descending by direct_bits (ties: by node index). Empty when the run
  /// had no marked-faulty nodes and no spoof rejections.
  std::vector<BlameEntry> ranking;
  std::string explanation;  ///< human-readable, multi-line
};

BlameReport diagnose_blame(const ProvenanceData& data);

}  // namespace renaming::obs
