// Canonical MsgKind -> PhaseId attribution table, compile-time checked.
//
// Two consumers need the kind -> phase mapping without a live Telemetry
// object: the flight-recorder journal (obs/journal.h) must attribute
// traffic identically whether or not telemetry is attached (its bytes are
// pinned byte-identical across telemetry configs), and the doctor
// (obs/doctor.h) re-derives phase ledgers from journals written by other
// processes. This header is the single source of truth; the per-protocol
// register_*_phases functions load the same values into Telemetry, and
// tests/obs_journal_test.cc pins that they agree.
//
// Exhaustiveness guard: kShippedKinds lists every wire kind a shipped
// protocol emits. The static_asserts below fail the build if any of them
// lacks a canonical name (sim/message_names.h) or a phase attribution —
// which is exactly the condition under which the `unattributed` ledger
// could silently grow on a shipped protocol.
#pragma once

#include <cstddef>

#include "obs/phase.h"
#include "obs/provenance_kinds.h"
#include "sim/message.h"
#include "sim/message_names.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

/// Canonical phase attribution for `kind`. Mirrors (and is pinned against)
/// the register_*_phases registrations; unknown kinds — bench-local or
/// adversarial — fall to kUnattributed, exactly as an unregistered kind
/// does in Telemetry.
constexpr PhaseId canonical_phase(sim::MsgKind kind) {
  switch (kind) {
    // crash/crash_renaming.h (Tag)
    case 1:  return PhaseId::kCommitteeAnnounce;
    case 2:  return PhaseId::kStatusReport;
    case 3:  return PhaseId::kCommitteeResponse;
    // byzantine/byz_renaming.h (Tag)
    case 10: return PhaseId::kCommitteeElection;
    case 11: return PhaseId::kIdentityAggregation;
    case 12: return PhaseId::kFingerprintValidation;
    case 13: return PhaseId::kConsensus;
    case 14: return PhaseId::kDiffExchange;
    case 15: return PhaseId::kDistribution;
    case 16: return PhaseId::kFullVectorExchange;
    // baselines (Table 1): single all-to-all exchange phase each.
    case 30: case 31:                      // naive, cht
    case 40: case 41: case 42:             // obg
    case 45:                               // early-deciding
    case 50: case 51:                      // claiming
      return PhaseId::kBaselineExchange;
    default:
      return PhaseId::kUnattributed;
  }
}

/// Every wire kind a shipped protocol emits (the domain of the guard
/// below). Bench- and test-local kinds are deliberately absent.
inline constexpr sim::MsgKind kShippedKinds[] = {
    1, 2, 3, 10, 11, 12, 13, 14, 15, 16, 30, 31, 40, 41, 42, 45, 50, 51,
};
inline constexpr std::size_t kShippedKindCount =
    sizeof(kShippedKinds) / sizeof(kShippedKinds[0]);

namespace detail {

constexpr bool all_shipped_kinds_named() {
  for (sim::MsgKind k : kShippedKinds) {
    if (sim::message_name_or_null(k) == nullptr) return false;
  }
  return true;
}

constexpr bool all_shipped_kinds_attributed() {
  for (sim::MsgKind k : kShippedKinds) {
    if (canonical_phase(k) == PhaseId::kUnattributed) return false;
  }
  return true;
}

constexpr bool no_phase_outside_shipped_kinds() {
  // The converse direction: a kind with a phase attribution must be a
  // shipped kind — canonical_phase cannot quietly outgrow the guard list.
  for (unsigned k = 0; k < 65536; ++k) {
    if (canonical_phase(static_cast<sim::MsgKind>(k)) ==
        PhaseId::kUnattributed) {
      continue;
    }
    bool shipped = false;
    for (sim::MsgKind s : kShippedKinds) shipped = shipped || (s == k);
    if (!shipped) return false;
  }
  return true;
}

// Three-way shipped ↔ wire-schema ↔ provenance coverage. Every kind in
// sim::kWireSchemas carries a decision payload, so each must have a row in
// obs::kProvenanceKinds (the attribution `renaming_doctor why` renders), and
// the provenance table must not outgrow the shipped set. Together with the
// schema-coverage guard in sim/wire_schema.h this pins the three tables to
// the same domain.
constexpr bool every_wire_schema_kind_has_provenance() {
  for (std::size_t i = 0; i < sim::wire::kWireSchemaCount; ++i) {
    if (prov_entry_index(sim::wire::kWireSchemas[i].kind) ==
        kProvenanceKindCount) {
      return false;
    }
  }
  return true;
}

constexpr bool every_provenance_kind_is_shipped() {
  for (std::size_t i = 0; i < kProvenanceKindCount; ++i) {
    bool shipped = false;
    for (sim::MsgKind s : kShippedKinds) {
      shipped = shipped || (s == kProvenanceKinds[i].kind);
    }
    if (!shipped) return false;
  }
  return true;
}

constexpr bool every_shipped_kind_has_provenance() {
  for (sim::MsgKind k : kShippedKinds) {
    if (prov_entry_index(k) == kProvenanceKindCount) return false;
  }
  return true;
}

}  // namespace detail

static_assert(detail::every_wire_schema_kind_has_provenance(),
              "every kind in sim::kWireSchemas carries a decision payload "
              "and needs a row in obs::kProvenanceKinds "
              "(obs/provenance_kinds.h)");
static_assert(detail::every_provenance_kind_is_shipped(),
              "obs::kProvenanceKinds lists a kind missing from "
              "kShippedKinds");
static_assert(detail::every_shipped_kind_has_provenance(),
              "every shipped MsgKind needs a provenance attribution row in "
              "obs::kProvenanceKinds");

static_assert(detail::all_shipped_kinds_named(),
              "every shipped MsgKind needs a name in sim/message_names.h");
static_assert(detail::all_shipped_kinds_attributed(),
              "every shipped MsgKind needs a canonical PhaseId attribution "
              "(the unattributed ledger must stay 0 on shipped protocols)");
static_assert(detail::no_phase_outside_shipped_kinds(),
              "canonical_phase attributes a kind missing from kShippedKinds");

}  // namespace renaming::obs
