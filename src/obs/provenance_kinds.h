// Decision-provenance event vocabulary (part of the RNPV format).
//
// Each recorded event carries its own ProvEventKind and, for a delivery,
// the MsgKind that caused it; `renaming_doctor why` prints both as
// recorded (prov_event_name() and sim::message_name()), so no table maps
// wire kinds to events.
#pragma once

#include <cstdint>

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

}  // namespace renaming::obs
