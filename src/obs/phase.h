// Central phase-id table for the observability layer (docs/OBSERVABILITY.md).
//
// Every message, bit and wall-clock microsecond a run spends is attributed
// to exactly one logical protocol phase. The attribution has two sources:
//
//   * message kinds: each row of the message-kind table (sim/wire_schema.h)
//     names its kind's PhaseId; every Telemetry is seeded from the rows
//     when it is constructed, and the engine charges every message it
//     accounts to its kind's phase (kinds without a row go to
//     kUnattributed). Since every message carries a kind, the per-phase
//     ledgers sum exactly to the RunStats totals (double-entry, pinned by
//     tests).
//   * PhaseScope spans: protocol nodes open a scope around their stage
//     logic, which both records a per-node span (for the Perfetto export)
//     and attributes the callback's wall time to the phase.
//
// The enum is deliberately global (one table across all protocols) so a
// bench sweep or a mixed report can compare phases across algorithms
// without a per-protocol registry.
#pragma once

#include <cstdint>

namespace renaming::obs {

enum class PhaseId : std::uint8_t {
  kUnattributed = 0,  ///< kind without a row in the message-kind table

  // Byzantine algorithm (Section 3, Figure 4).
  kCommitteeElection,       ///< ELECT broadcast + pool-coin filtering
  kIdentityAggregation,     ///< identity reports into L_v
  kFingerprintValidation,   ///< Validator on <fingerprint, count>
  kConsensus,               ///< every PhaseKing instance of the loop
  kDiffExchange,            ///< DIFF bits + the "many" threshold
  kFullVectorExchange,      ///< ablation A2: whole identity vectors
  kDistribution,            ///< NEW(rank) / NEW(null) fan-out
  kAwaitName,               ///< ordinary nodes waiting on NEW quorum

  // Crash algorithm (Section 2, Figures 1-3): one phase per subround.
  kCommitteeAnnounce,  ///< subround 1: committee notification
  kStatusReport,       ///< subround 2: <ID, I, d, p> to the committee
  kCommitteeResponse,  ///< subround 3: halving replies + node action

  // Quadratic baselines (Table 1): a single exchange phase each — their
  // structure is all-to-all, there is nothing finer to attribute to.
  kBaselineExchange,

  kCount,  ///< sentinel: number of phases
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(PhaseId::kCount);

/// Stable lower-case names used by the exporters and the auditor report.
constexpr const char* phase_name(PhaseId p) {
  switch (p) {
    case PhaseId::kUnattributed:           return "unattributed";
    case PhaseId::kCommitteeElection:      return "committee-election";
    case PhaseId::kIdentityAggregation:    return "identity-aggregation";
    case PhaseId::kFingerprintValidation:  return "fingerprint-validation";
    case PhaseId::kConsensus:              return "phase-king-consensus";
    case PhaseId::kDiffExchange:           return "diff-exchange";
    case PhaseId::kFullVectorExchange:     return "full-vector-exchange";
    case PhaseId::kDistribution:           return "distribution";
    case PhaseId::kAwaitName:              return "await-name";
    case PhaseId::kCommitteeAnnounce:      return "committee-announce";
    case PhaseId::kStatusReport:           return "status-report";
    case PhaseId::kCommitteeResponse:      return "committee-response";
    case PhaseId::kBaselineExchange:       return "baseline-exchange";
    case PhaseId::kCount:                  break;
  }
  return "?";
}

}  // namespace renaming::obs
