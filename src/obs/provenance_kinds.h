// Decision-provenance event vocabulary and the wire-kind attribution table.
//
// Kept as a tiny standalone header so obs/kind_registry.h can cross-check it
// against kShippedKinds and sim/wire_schema.h at compile time (the three-way
// static_assert), and so scripts/protocol_lint.py can parse the table without
// dragging in the full recorder.
#pragma once

#include <cstdint>

#include "sim/message.h"

namespace renaming::obs {

/// Decision-relevant protocol events the provenance recorder understands.
/// The numeric values are part of the RNPV v1 wire format — append only.
enum class ProvEventKind : std::uint8_t {
  kNameProposal = 0,     ///< node adopted / narrowed a candidate interval
  kNameClaim = 1,        ///< node committed to a final new name
  kConflictRetry = 2,    ///< node lost a contention and retried
  kCommitteeVote = 3,    ///< committee member emitted a decision-bearing reply
  kPhaseKingVerdict = 4, ///< phase-king consensus verdict observed
  kSpoofReject = 5,      ///< engine rejected a forged-sender message
  kCrashObserved = 6,    ///< engine observed a crash / corruption
};

inline constexpr std::uint8_t kProvEventKindCount = 7;

constexpr const char* prov_event_name(ProvEventKind k) {
  switch (k) {
    case ProvEventKind::kNameProposal: return "name-proposal";
    case ProvEventKind::kNameClaim: return "name-claim";
    case ProvEventKind::kConflictRetry: return "conflict-retry";
    case ProvEventKind::kCommitteeVote: return "committee-vote";
    case ProvEventKind::kPhaseKingVerdict: return "phase-king-verdict";
    case ProvEventKind::kSpoofReject: return "spoof-reject";
    case ProvEventKind::kCrashObserved: return "crash-observed";
  }
  return "?";
}

/// One row of the provenance attribution table: a shipped wire kind whose
/// payload carries decision-relevant content, and the provenance event kind
/// its deliveries canonically trigger downstream. `renaming_doctor why`
/// uses this to label cause hops; obs/kind_registry.h statically checks the
/// table covers every kind in sim::kWireSchemas.
struct ProvKindEntry {
  sim::MsgKind kind;
  ProvEventKind event;
};

/// Sorted by kind, one entry per shipped wire kind. Adding a wire schema
/// without extending this table is a compile error (kind_registry.h) and a
/// protocol_lint R14 (provenance-coverage) violation.
inline constexpr ProvKindEntry kProvenanceKinds[] = {
    {1, ProvEventKind::kCommitteeVote},      // crash COMMITTEE announce
    {2, ProvEventKind::kCommitteeVote},      // crash STATUS (vote input)
    {3, ProvEventKind::kNameProposal},       // crash RESPONSE (interval grant)
    {10, ProvEventKind::kCommitteeVote},     // byz ELECT
    {11, ProvEventKind::kNameProposal},      // byz ID_REPORT
    {12, ProvEventKind::kPhaseKingVerdict},  // byz VALIDATOR
    {13, ProvEventKind::kPhaseKingVerdict},  // byz CONSENSUS
    {14, ProvEventKind::kPhaseKingVerdict},  // byz DIFF
    {15, ProvEventKind::kNameClaim},         // byz NEW (name distribution)
    {16, ProvEventKind::kNameProposal},      // byz VECTOR (ablation)
    {30, ProvEventKind::kNameClaim},         // naive ID
    {31, ProvEventKind::kNameProposal},      // cht STATUS (halving input)
    {40, ProvEventKind::kNameProposal},      // obg ANNOUNCE
    {41, ProvEventKind::kNameProposal},      // obg VECTOR
    {42, ProvEventKind::kNameProposal},      // obg HALVING
    {45, ProvEventKind::kNameClaim},         // early-deciding SET
    {50, ProvEventKind::kNameClaim},         // claiming CLAIM
    {51, ProvEventKind::kConflictRetry},     // claiming OWNED (forces retry)
};

inline constexpr std::size_t kProvenanceKindCount =
    sizeof(kProvenanceKinds) / sizeof(kProvenanceKinds[0]);

/// Index of `kind`'s attribution row; kProvenanceKindCount when it has
/// none. kind_registry.h uses it inside static_asserts, which must compare
/// indices, not addresses: GCC 12 under -fsanitize=undefined cannot
/// constant-evaluate `&kProvenanceKinds[i] == nullptr`.
constexpr std::size_t prov_entry_index(sim::MsgKind kind) {
  std::size_t i = 0;
  while (i < kProvenanceKindCount && kProvenanceKinds[i].kind != kind) ++i;
  return i;
}

}  // namespace renaming::obs
