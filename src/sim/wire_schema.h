// The message-kind table: the one declaration of every shipped message
// kind. `Kind` names each kind's number once; a row, keyed by its `Kind`,
// gives the kind's stable wire-protocol name, the obs::PhaseId its traffic
// is charged to, and its bit layout; everything else about a kind is a
// lookup on its row:
//
//   * message_name()     — traces, CountingTrace, exporters, the doctor;
//   * canonical_phase()  — the journal/doctor phase ledgers, and the
//                           kind -> phase array every obs::Telemetry is
//                           seeded with when it is constructed;
//   * wire_bits() / make_message() / send() — declared widths.
//
// Adding a kind is one `Kind` enumerator plus one row here. A row keyed by
// a bare number does not compile (a scoped enum has no implicit conversion
// from an integer), and tests/trace_test.cc pins the names.
//
// Widths. The paper's headline claim is subquadratic *bits* (Theorems
// 1.2/1.3), so each Message declares its wire size and the engine sums the
// declarations into RunStats/Telemetry/Journal. One stale hand-written
// width silently falsifies every BudgetAuditor gate and BENCH_* cell, so
// each kind instead lists its named fields with closed-form widths
// parameterized by (n, namespace_size), the constexpr wire_bits()
// evaluator folds them, and:
//
//   * protocols obtain widths ONLY through wire_bits()/make_message()/
//     send(): a sim::WireBits (sim/message.h) is minted only by
//     wire_bits() and the named probe constants below, so an integer
//     width does not compile;
//   * BudgetAuditor cross-checks each honest run's per-kind emitted bits
//     against the closed forms at runtime (obs/budget.h), and
//     tests/wire_schema_test.cc pins the equivalence per protocol.
//
// Fixed vs variable kinds: most messages have a fixed field list whose
// widths depend only on the run context. The four bulk kinds (VECTOR,
// OBG_VECTOR, OBG_HALVING, EARLY_SET) ship identity sets, so their width
// is per-element: max(1, count) * ceil(log2 N), clamped at kVariableBitsCap
// to fit Message::bits. These are the Omega(n log N)-bit baselines the
// paper criticises — the schema documents them, it does not bless them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "obs/phase.h"
#include "sim/message.h"
#include "sim/node.h"

namespace renaming::sim::wire {

/// Every shipped message kind, numbered as it travels in Message::kind.
enum class Kind : MsgKind {
  // crash/crash_renaming.h — Figure 1-3 message formats.
  kCommittee = 1,  ///< round 1: "I am a committee member"
  kStatus = 2,     ///< round 2: <ID, I.lo, I.hi, d, p>
  kResponse = 3,   ///< round 3: <ID, I.lo, I.hi, d, p>
  // byzantine/byz_renaming.h.
  kElect = 10,      ///< round 1: <id>
  kIdReport = 11,   ///< round 2: <id>
  kValidator = 12,  ///< loop: Validator traffic
  kConsensus = 13,  ///< loop: PhaseKing traffic
  kDiff = 14,       ///< loop: <session, diff bit>
  kNew = 15,        ///< distribution: <new id or 0=null>
  kVector = 16,     ///< ablation: full identity vector (blob)
  // baselines (Table 1).
  kNaiveId = 30,      ///< naive.cc: <id> to everyone
  kChtStatus = 31,    ///< cht_crash.cc: <id, I.lo, I.hi>
  kObgAnnounce = 40,  ///< obg_byzantine.cc: <id>
  kObgVector = 41,    ///< obg_byzantine.cc: known identities (blob)
  kObgHalving = 42,   ///< obg_byzantine.cc: half-split candidates (blob)
  kEarlySet = 45,     ///< early_deciding.cc: known identities (blob)
  kClaim = 50,        ///< claiming.cc: <id, slot> claim
  kOwned = 51,        ///< claiming.cc: <id, slot> heartbeat
};

/// The number `kind` travels as in Message::kind.
constexpr MsgKind raw(Kind kind) { return static_cast<MsgKind>(kind); }

/// Run parameters every closed-form width is phrased in.
struct WireContext {
  std::uint64_t n = 0;               ///< number of participants
  std::uint64_t namespace_size = 0;  ///< N, the original-identity space
};

/// Closed-form width of one named field.
enum class Width : std::uint8_t {
  kConst8,        ///< 8 bits (control/flag byte)
  kConst16,       ///< 16 bits (session + subkind control word)
  kConst61,       ///< 61 bits (m61 fingerprint, hashing/m61.h)
  kLogN,          ///< ceil(log2 n) — target-namespace values
  kLogNPlus1,     ///< ceil(log2 (n+1)) — ranks/counts including 0
  kLogNamespace,  ///< ceil(log2 N) — original identities
};

struct WireField {
  const char* name = nullptr;
  Width width = Width::kConst8;
};

/// A fixed layout's fields travel as Message::w's inline words.
inline constexpr std::size_t kMaxWireFields = kInlineWords;

/// One row of the message-kind table. For `variable` kinds the single
/// field describes the per-element width of the shipped set.
struct WireSchema {
  Kind kind{};
  const char* name = nullptr;  ///< stable wire-protocol name
  bool variable = false;
  obs::PhaseId phase = obs::PhaseId::kUnattributed;  ///< ledger it feeds
  std::size_t field_count = 0;
  WireField fields[kMaxWireFields]{};
};

/// Bulk payloads clamp here so the width fits Message::bits (32 bits).
inline constexpr std::uint32_t kVariableBitsCap = 1u << 30;

/// The message-kind table, ascending by kind. Bench- and test-local kinds
/// get no row; one that reuses a row's number (bench_engine's ping is 41)
/// is named and attributed as that row.
inline constexpr WireSchema kWireSchemas[] = {
    // crash/crash_renaming.h — Figure 1-3 message formats.
    {Kind::kCommittee, "COMMITTEE", false, obs::PhaseId::kCommitteeAnnounce, 1,
     {{"id", Width::kLogNamespace}}},
    {Kind::kStatus, "STATUS", false, obs::PhaseId::kStatusReport, 5,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN},
      {"depth", Width::kConst8},
      {"phase", Width::kConst8}}},
    {Kind::kResponse, "RESPONSE", false, obs::PhaseId::kCommitteeResponse, 5,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN},
      {"depth", Width::kConst8},
      {"phase", Width::kConst8}}},
    // byzantine/byz_renaming.h. The control kinds (ELECT, ID_REPORT,
    // CONSENSUS, DIFF) carry an identity-sized value plus a 16-bit
    // session/subkind control word.
    {Kind::kElect, "ELECT", false, obs::PhaseId::kCommitteeElection, 2,
     {{"id", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {Kind::kIdReport, "ID_REPORT", false, obs::PhaseId::kIdentityAggregation, 2,
     {{"id", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {Kind::kValidator, "VALIDATOR", false,
     obs::PhaseId::kFingerprintValidation, 3,
     {{"fingerprint", Width::kConst61},
      {"count", Width::kLogNPlus1},
      {"control", Width::kConst16}}},
    {Kind::kConsensus, "CONSENSUS", false, obs::PhaseId::kConsensus, 2,
     {{"value", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {Kind::kDiff, "DIFF", false, obs::PhaseId::kDiffExchange, 2,
     {{"payload", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {Kind::kNew, "NEW", false, obs::PhaseId::kDistribution, 2,
     {{"rank", Width::kLogNPlus1}, {"control", Width::kConst8}}},
    {Kind::kVector, "VECTOR", true, obs::PhaseId::kFullVectorExchange, 1,
     {{"identity", Width::kLogNamespace}}},
    // baselines (Table 1): naive, cht_crash, obg_byzantine, early_deciding
    // and claiming.
    {Kind::kNaiveId, "NAIVE_ID", false, obs::PhaseId::kBaselineExchange, 1,
     {{"id", Width::kLogNamespace}}},
    {Kind::kChtStatus, "CHT_STATUS", false, obs::PhaseId::kBaselineExchange, 3,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN}}},
    {Kind::kObgAnnounce, "OBG_ANNOUNCE", false,
     obs::PhaseId::kBaselineExchange, 1,
     {{"id", Width::kLogNamespace}}},
    {Kind::kObgVector, "OBG_VECTOR", true, obs::PhaseId::kBaselineExchange, 1,
     {{"identity", Width::kLogNamespace}}},
    {Kind::kObgHalving, "OBG_HALVING", true, obs::PhaseId::kBaselineExchange, 1,
     {{"identity", Width::kLogNamespace}}},
    {Kind::kEarlySet, "EARLY_SET", true, obs::PhaseId::kBaselineExchange, 1,
     {{"identity", Width::kLogNamespace}}},
    {Kind::kClaim, "CLAIM", false, obs::PhaseId::kBaselineExchange, 2,
     {{"id", Width::kLogNamespace}, {"slot", Width::kLogN}}},
    {Kind::kOwned, "OWNED", false, obs::PhaseId::kBaselineExchange, 2,
     {{"id", Width::kLogNamespace}, {"slot", Width::kLogN}}},
};
inline constexpr std::size_t kWireSchemaCount =
    sizeof(kWireSchemas) / sizeof(kWireSchemas[0]);

/// Every row's kind is below this bound, so a kind indexes a table.
inline constexpr std::size_t kKindLimit = 64;

namespace detail {
/// kind -> its row in kWireSchemas, kWireSchemaCount when it has none:
/// wire_bits() runs once per message sent, so the lookup is O(1).
inline constexpr auto kRowOfKind = [] {
  std::array<std::uint8_t, kKindLimit> rows{};
  rows.fill(static_cast<std::uint8_t>(kWireSchemaCount));
  for (std::size_t i = 0; i < kWireSchemaCount; ++i) {
    // A kind past the bound fails rows_sorted_and_well_formed() below.
    if (raw(kWireSchemas[i].kind) < kKindLimit) {
      rows[raw(kWireSchemas[i].kind)] = static_cast<std::uint8_t>(i);
    }
  }
  return rows;
}();
static_assert(kWireSchemaCount < 256, "row indices are stored as bytes");
}  // namespace detail

/// Index of `kind` in kWireSchemas; kWireSchemaCount when it has no row.
/// Constant evaluation only ever compares indices: GCC 12 under
/// -fsanitize=undefined cannot constant-evaluate `&kWireSchemas[i] !=
/// nullptr`, which broke every static_assert below.
constexpr std::size_t schema_index(MsgKind kind) {
  return kind < kKindLimit ? detail::kRowOfKind[kind] : kWireSchemaCount;
}

/// Schema lookup; nullptr for kinds without a row (bench-/test-local).
constexpr const WireSchema* schema_of_or_null(MsgKind kind) {
  const std::size_t i = schema_index(kind);
  return i < kWireSchemaCount ? &kWireSchemas[i] : nullptr;
}

/// Schema lookup for kinds that must have a row.
constexpr const WireSchema& schema_of(Kind kind) {
  const std::size_t i = schema_index(raw(kind));
  RENAMING_CHECK(i < kWireSchemaCount,
                 "wire_schema: message kind without a row");
  return kWireSchemas[i];
}

/// Closed-form width of one field.
constexpr std::uint32_t width_bits(Width w, const WireContext& ctx) {
  switch (w) {
    case Width::kConst8: return 8;
    case Width::kConst16: return 16;
    case Width::kConst61: return 61;
    case Width::kLogN: return ceil_log2(ctx.n);
    case Width::kLogNPlus1: return ceil_log2(ctx.n + 1);
    case Width::kLogNamespace: return ceil_log2(ctx.namespace_size);
  }
  RENAMING_CHECK(false, "wire_schema: unknown field width");
  return 0;
}

/// Declared wire size of a fixed-layout kind: the sum of its field widths.
constexpr WireBits wire_bits(Kind kind, const WireContext& ctx) {
  const WireSchema& s = schema_of(kind);
  RENAMING_CHECK(!s.variable,
                 "variable-width kind needs the payload-count overload");
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < s.field_count; ++i) {
    bits += width_bits(s.fields[i].width, ctx);
  }
  return WireBits(static_cast<std::uint32_t>(bits));
}

/// Declared wire size of a variable-width (bulk identity-set) kind:
/// max(1, count) elements at the per-element width, clamped to the cap.
/// The max(1, ...) floor keeps Message::bits > 0 for empty sets.
constexpr WireBits wire_bits(Kind kind, const WireContext& ctx,
                             std::uint64_t payload_count) {
  const WireSchema& s = schema_of(kind);
  RENAMING_CHECK(s.variable,
                 "fixed-layout kind does not take a payload count");
  const std::uint64_t per = width_bits(s.fields[0].width, ctx);
  const std::uint64_t total = std::max<std::uint64_t>(1, payload_count) * per;
  return WireBits(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(total, kVariableBitsCap)));
}

/// Schema-deriving builder for fixed-layout kinds: the declared width
/// flows from the table.
template <typename... Words>
Message make_message(Kind kind, const WireContext& ctx, Words... words) {
  return sim::make_message(raw(kind), wire_bits(kind, ctx), words...);
}

/// In-place twin of make_message for a unicast: queues the same message on
/// `out` to `dest`, written straight into its outbox slot (Outbox::
/// send_in_place) instead of built and then copied. Queues exactly what
/// `out.send(dest, make_message(kind, ctx, words...))` would.
template <typename... Words>
void send(Outbox& out, NodeIndex dest, Kind kind, const WireContext& ctx,
          Words... words) {
  static_assert(sizeof...(Words) <= kInlineWords);
  out.send_in_place(dest, [&](Message& m) {
    m.kind = raw(kind);
    m.bits = wire_bits(kind, ctx);
    m.nwords = static_cast<std::uint8_t>(sizeof...(Words));
    std::size_t i = 0;
    ((m.w[i++] = static_cast<std::uint64_t>(words)), ...);
  });
}

/// Schema-deriving builder for variable-width kinds: the width follows the
/// payload's element count. `owner` — the outbox the message is queued on —
/// keeps the payload until its end-of-round clear(); receivers copy what
/// they keep.
template <typename... Words>
Message make_blob_message(Kind kind, const WireContext& ctx,
                          Outbox& owner, std::vector<std::uint64_t> payload,
                          Words... words) {
  Message m = sim::make_message(raw(kind), wire_bits(kind, ctx, payload.size()),
                                words...);
  m.blob = owner.own_blob(std::move(payload));
  return m;
}

// --- adversarial probe widths ---------------------------------------------
// Byzantine strategies (byzantine/strategies.h) forge messages whose
// declared width deliberately does NOT follow the honest schema — the
// attacker pays for whatever it puts on the wire (docs/MODEL.md
// "Accounting"). ProbeWidths is the one other minter of a WireBits, so
// these two constants are every width that does not come from a row, and
// the golden trace pins record exactly these values.

struct ProbeWidths {
  /// LyingMember's premature fake NEW volley: a bare probe rank, smaller
  /// than any honest NEW the schema admits.
  static constexpr WireBits kForgedNew = WireBits(16);
  /// Spoofer's forged ELECT/ID_REPORT probes: a flat 32-bit claim, sent
  /// only to show the authentication layer is load-bearing.
  static constexpr WireBits kSpoof = WireBits(32);
};

// --- exhaustiveness guards -------------------------------------------------

namespace detail {

constexpr bool rows_sorted_and_well_formed() {
  for (std::size_t i = 0; i < kWireSchemaCount; ++i) {
    const WireSchema& s = kWireSchemas[i];
    if (i > 0 && raw(kWireSchemas[i - 1].kind) >= raw(s.kind)) return false;
    if (raw(s.kind) >= kKindLimit) return false;
    if (s.name == nullptr) return false;
    if (s.phase == obs::PhaseId::kUnattributed ||
        s.phase >= obs::PhaseId::kCount) {
      return false;
    }
    if (s.field_count == 0 || s.field_count > kMaxWireFields) return false;
    if (s.variable && s.field_count != 1) return false;
    for (std::size_t j = 0; j < s.field_count; ++j) {
      if (s.fields[j].name == nullptr) return false;
    }
  }
  return true;
}

constexpr std::size_t widest_fixed_layout() {
  std::size_t widest = 0;
  for (std::size_t i = 0; i < kWireSchemaCount; ++i) {
    if (!kWireSchemas[i].variable) {
      widest = std::max(widest, kWireSchemas[i].field_count);
    }
  }
  return widest;
}

}  // namespace detail

static_assert(detail::rows_sorted_and_well_formed(),
              "kWireSchemas must be ascending by kind, below kKindLimit, and "
              "every row needs a name, a phase other than kUnattributed and "
              "a well-formed field list");
static_assert(detail::widest_fixed_layout() == kInlineWords,
              "Message::w holds exactly the widest fixed layout: a wider "
              "row would not fit inline, a narrower table wastes bytes of "
              "every queued message");

// Closed-form pins at a concrete context (n = 48, N = 5*48*48): these are
// the exact widths the pre-schema literals produced, and the golden trace
// and journal byte pins depend on them. A schema edit that moves one of
// these values is changing the wire protocol, not refactoring it. Each
// kind is sent at its own row's width, so every byz control kind is pinned,
// not only ELECT.
namespace detail {
inline constexpr WireContext kPinCtx{48, 5ull * 48 * 48};
}  // namespace detail
// ceil_log2(N)
static_assert(wire_bits(Kind::kCommittee, detail::kPinCtx) == 14);
// logN + 2 logn + 16
static_assert(wire_bits(Kind::kStatus, detail::kPinCtx) == 42);
static_assert(wire_bits(Kind::kResponse, detail::kPinCtx) == 42);
static_assert(wire_bits(Kind::kElect, detail::kPinCtx) == 30);  // logN + 16
static_assert(wire_bits(Kind::kIdReport, detail::kPinCtx) == 30);
// 61 + log(n+1) + 16
static_assert(wire_bits(Kind::kValidator, detail::kPinCtx) == 83);
static_assert(wire_bits(Kind::kConsensus, detail::kPinCtx) == 30);
static_assert(wire_bits(Kind::kDiff, detail::kPinCtx) == 30);
static_assert(wire_bits(Kind::kNew, detail::kPinCtx) == 14);  // log(n+1) + 8
// max(1,.) floor
static_assert(wire_bits(Kind::kVector, detail::kPinCtx, 0) == 14);
// 10 * logN
static_assert(wire_bits(Kind::kVector, detail::kPinCtx, 10) == 140);
// logN + 2 logn
static_assert(wire_bits(Kind::kChtStatus, detail::kPinCtx) == 26);
static_assert(wire_bits(Kind::kClaim, detail::kPinCtx) == 20);  // logN + logn
static_assert(wire_bits(Kind::kOwned, detail::kPinCtx) == 20);

}  // namespace renaming::sim::wire

namespace renaming::sim {

/// Stable wire-protocol name of `kind`: its row's name. A kind without a
/// row renders as "?", which CountingTrace::report prints as `?(<kind>)`.
constexpr const char* message_name(MsgKind kind) {
  const std::size_t i = wire::schema_index(kind);
  return i < wire::kWireSchemaCount ? wire::kWireSchemas[i].name : "?";
}

/// The phase ledger `kind`'s traffic is charged to: its row's phase. Kinds
/// without a row (bench-local or adversarial) fall to kUnattributed.
constexpr obs::PhaseId canonical_phase(MsgKind kind) {
  const std::size_t i = wire::schema_index(kind);
  return i < wire::kWireSchemaCount ? wire::kWireSchemas[i].phase
                                    : obs::PhaseId::kUnattributed;
}

}  // namespace renaming::sim
