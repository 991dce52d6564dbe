// Wire-schema equivalence tests (src/sim/wire_schema.h).
//
// Two directions. First, the closed forms themselves: wire_bits() must
// evaluate the documented per-field formulas (Figure 1-3 layouts, the
// Byzantine control word, Table 1 baselines) at concrete contexts,
// including the variable-width floor (empty sets still cost one element)
// and the kVariableBitsCap clamp. Second, runtime equivalence: for every
// protocol, the per-kind bit ledger a real run accumulates must match
// `messages * wire_bits(kind)` exactly for fixed-layout kinds — at two
// (n, f) points each, so a width that accidentally depends on the wrong
// parameter cannot slip through — and for bulk identity-set kinds must be
// a positive multiple of the per-element width. This is the same
// invariant the BudgetAuditor enforces on honest-wire runs, checked here
// without envelopes in the way and including the variable kinds the
// auditor skips.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/cht_crash.h"
#include "baselines/claiming.h"
#include "baselines/early_deciding.h"
#include "baselines/naive.h"
#include "baselines/obg_byzantine.h"
#include "byzantine/byz_renaming.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/telemetry.h"
#include "sim/wire_schema.h"

namespace renaming {
namespace {

using sim::wire::Kind;

// Every kind a run touched must book bits consistent with its schema:
// fixed layouts exactly, bulk identity sets as a positive multiple of the
// per-element width (exactness per message needs the payload count, which
// the ledger deliberately does not retain).
void expect_ledger_matches_schema(const obs::Telemetry& telemetry,
                                  const SystemConfig& cfg) {
  const sim::wire::WireContext ctx{cfg.n, cfg.namespace_size};
  for (const sim::wire::WireSchema& schema : sim::wire::kWireSchemas) {
    const sim::MsgKind kind = sim::wire::raw(schema.kind);
    const std::uint64_t messages = telemetry.kind_messages(kind);
    if (messages == 0) continue;
    const std::uint64_t bits = telemetry.kind_bits(kind);
    if (schema.variable) {
      const std::uint64_t per =
          sim::wire::width_bits(schema.fields[0].width, ctx);
      EXPECT_GE(bits, messages * per) << schema.name;
      EXPECT_EQ(bits % per, 0u) << schema.name;
      EXPECT_LE(bits, messages * sim::wire::kVariableBitsCap) << schema.name;
    } else {
      EXPECT_EQ(bits, messages * sim::wire::wire_bits(schema.kind, ctx))
          << schema.name << " at n=" << cfg.n;
    }
  }
}

TEST(WireSchema, ClosedFormsAtPinnedContext) {
  // n = 48, N = 5 n^2 = 11520: ceil(lg N) = 14, ceil(lg n) = 6,
  // ceil(lg (n+1)) = 6.
  const sim::wire::WireContext ctx{48, 5ull * 48 * 48};
  using sim::wire::wire_bits;
  EXPECT_EQ(wire_bits(Kind::kCommittee, ctx), 14u);
  EXPECT_EQ(wire_bits(Kind::kStatus, ctx), 14u + 6 + 6 + 8 + 8);
  EXPECT_EQ(wire_bits(Kind::kResponse, ctx), wire_bits(Kind::kStatus, ctx));
  EXPECT_EQ(wire_bits(Kind::kElect, ctx), 14u + 16);
  EXPECT_EQ(wire_bits(Kind::kValidator, ctx), 61u + 6 + 16);
  EXPECT_EQ(wire_bits(Kind::kNew, ctx), 6u + 8);
  EXPECT_EQ(wire_bits(Kind::kNaiveId, ctx), 14u);
  EXPECT_EQ(wire_bits(Kind::kChtStatus, ctx), 14u + 6 + 6);
  EXPECT_EQ(wire_bits(Kind::kClaim, ctx), 14u + 6);
}

TEST(WireSchema, VariableWidthFloorAndClamp) {
  const sim::wire::WireContext ctx{48, 5ull * 48 * 48};  // 14 bits/element
  EXPECT_EQ(sim::wire::wire_bits(Kind::kVector, ctx, 7), 7u * 14);
  // Empty sets still cost one element so Message::bits stays positive.
  EXPECT_EQ(sim::wire::wire_bits(Kind::kVector, ctx, 0), 14u);
  // Oversized payloads clamp at the cap instead of overflowing uint32_t.
  EXPECT_EQ(sim::wire::wire_bits(Kind::kVector, ctx, 1ull << 40),
            sim::wire::kVariableBitsCap);
}

TEST(WireSchema, CrashRunLedgerMatchesSchema) {
  // Point 1: faulty run (crash-model wire stays honest under crashes).
  {
    const NodeIndex n = 64;
    const auto cfg = SystemConfig::random(n, 5ull * n * n, 17);
    crash::CrashParams params;
    params.election_constant = 3.0;
    obs::Telemetry telemetry;
    auto adversary = std::make_unique<crash::CommitteeHunter>(
        16, crash::CommitteeHunter::Mode::kMidResponse, 9, 0.5);
    const auto result = crash::run_crash_renaming(
        cfg, params, std::move(adversary), {.telemetry = &telemetry});
    ASSERT_TRUE(result.report.ok());
    expect_ledger_matches_schema(telemetry, cfg);
  }
  // Point 2: different (n, N), failure-free.
  {
    const NodeIndex n = 96;
    const auto cfg = SystemConfig::random(n, 5ull * n * n, 23);
    crash::CrashParams params;
    params.election_constant = 3.0;
    obs::Telemetry telemetry;
    const auto result = crash::run_crash_renaming(
        cfg, params, nullptr, {.telemetry = &telemetry});
    ASSERT_TRUE(result.report.ok());
    expect_ledger_matches_schema(telemetry, cfg);
  }
}

TEST(WireSchema, ByzantineHonestRunLedgerMatchesSchema) {
  // f = 0 on purpose: adversarial strategies self-declare widths (the
  // named probe constants), so per-kind exactness only holds honest-wire.
  for (const NodeIndex n : {NodeIndex{48}, NodeIndex{80}}) {
    const auto cfg = SystemConfig::random(n, 5ull * n * n, 700 + n);
    byzantine::ByzParams params;
    params.pool_constant = 4.0;
    params.shared_seed = 4242;
    obs::Telemetry telemetry;
    const auto result = byzantine::run_byz_renaming(
        cfg, params, {}, nullptr, 0, {.telemetry = &telemetry});
    ASSERT_TRUE(result.report.ok(true));
    expect_ledger_matches_schema(telemetry, cfg);
  }
}

TEST(WireSchema, BaselineRunLedgersMatchSchema) {
  for (const NodeIndex n : {NodeIndex{48}, NodeIndex{72}}) {
    const auto cfg = SystemConfig::random(n, 5ull * n * n, 29u + n);
    {
      obs::Telemetry t;
      const auto r = baselines::run_naive_renaming(
          cfg, nullptr, {.telemetry = &t});
      ASSERT_TRUE(r.report.ok());
      expect_ledger_matches_schema(t, cfg);
    }
    {
      obs::Telemetry t;
      const auto r = baselines::run_cht_renaming(
          cfg, nullptr, /*closed_form_cutoff=*/0, {.telemetry = &t});
      ASSERT_TRUE(r.report.ok());
      expect_ledger_matches_schema(t, cfg);
    }
    {
      obs::Telemetry t;
      const auto r = baselines::run_claiming_renaming(
          cfg, nullptr, {.telemetry = &t});
      ASSERT_TRUE(r.report.ok());
      expect_ledger_matches_schema(t, cfg);
    }
    {
      // OBG with no Byzantine nodes: honest wire, exercises the bulk
      // OBG_VECTOR / OBG_HALVING kinds.
      obs::Telemetry t;
      const auto r = baselines::run_obg_renaming(
          cfg, {}, baselines::ObgByzBehaviour::kSilent,
          /*closed_form_cutoff=*/0, {.telemetry = &t});
      ASSERT_TRUE(r.report.ok());
      expect_ledger_matches_schema(t, cfg);
    }
    {
      obs::Telemetry t;
      const auto r = baselines::run_early_deciding_renaming(
          cfg, nullptr, {.telemetry = &t});
      ASSERT_TRUE(r.report.ok());
      expect_ledger_matches_schema(t, cfg);
    }
  }
}

}  // namespace
}  // namespace renaming
