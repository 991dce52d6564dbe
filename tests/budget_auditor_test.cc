// BudgetAuditor tests (src/obs/budget.h, docs/OBSERVABILITY.md).
//
// Positive direction: every shipped algorithm, run at test scale with its
// documented constants, must fit inside the calibrated envelopes derived
// from Theorem 1.2 / Theorem 1.3 / Table 1 — the same check CI's
// bench-smoke gate runs. Negative direction: the auditor has teeth — an
// over-budget fixture, a run audited against the wrong (cheaper)
// algorithm's envelope, and a broken phase attribution must all FAIL.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/cht_crash.h"
#include "baselines/claiming.h"
#include "baselines/early_deciding.h"
#include "baselines/naive.h"
#include "baselines/obg_byzantine.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/budget.h"
#include "obs/telemetry.h"
#include "test_support.h"

namespace renaming {
namespace {

using test_support::raw_wire_bits;

obs::BudgetParams base_params(const std::string& algorithm,
                              const SystemConfig& cfg, std::uint64_t f) {
  obs::BudgetParams p;
  p.algorithm = algorithm;
  p.n = cfg.n;
  p.f = f;
  p.namespace_size = cfg.namespace_size;
  return p;
}

TEST(BudgetAuditor, CrashRunPassesTheorem12Envelope) {
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

  auto p = base_params("crash", cfg, 16);
  p.committee_constant = params.election_constant;
  p.phase_multiplier = params.phase_multiplier;
  const auto report = obs::audit_run(p, result.stats, &telemetry);
  EXPECT_TRUE(report.ok()) << report.summary();
  // With telemetry the report carries per-phase lines + the double-entry
  // reconciliation.
  bool has_phase_line = false, has_double_entry = false;
  for (const auto& l : report.lines) {
    has_phase_line |= l.quantity.rfind("phase:", 0) == 0;
    has_double_entry |= l.quantity == "phase-attribution messages";
  }
  EXPECT_TRUE(has_phase_line);
  EXPECT_TRUE(has_double_entry);
}

TEST(BudgetAuditor, ByzantineRunPassesTheorem13Envelope) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 777);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 4242;
  obs::Telemetry telemetry;
  const auto result = byzantine::run_byz_renaming(
      cfg, params, {5, 23, 41}, &byzantine::SplitReporter::make, 0,
      {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok(true));

  auto p = base_params("byz", cfg, 3);
  p.committee_constant = params.pool_constant;
  const auto report = obs::audit_run(p, result.stats, &telemetry);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BudgetAuditor, FullVectorAblationPassesItsOwnWiderEnvelope) {
  const NodeIndex n = 40;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 23);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 8;
  params.use_fingerprints = false;  // ablation A2
  obs::Telemetry telemetry;
  const auto result = byzantine::run_byz_renaming(
      cfg, params, {}, nullptr, 0, {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok(true));

  auto p = base_params("byz-full", cfg, 0);
  p.committee_constant = params.pool_constant;
  const auto report = obs::audit_run(p, result.stats, &telemetry);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(BudgetAuditor, AllBaselinesPassTheirTable1Envelopes) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 29);
  {
    obs::Telemetry t;
    const auto r = baselines::run_naive_renaming(
        cfg, nullptr, {.telemetry = &t});
    const auto rep = obs::audit_run(base_params("naive", cfg, 0), r.stats, &t);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
  {
    obs::Telemetry t;
    const auto r = baselines::run_cht_renaming(
        cfg, nullptr, /*closed_form_cutoff=*/0, {.telemetry = &t});
    const auto rep = obs::audit_run(base_params("cht", cfg, 0), r.stats, &t);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
  {
    obs::Telemetry t;
    const auto r = baselines::run_obg_renaming(
        cfg, {3, 11}, baselines::ObgByzBehaviour::kSplitAnnounce,
        /*closed_form_cutoff=*/0, {.telemetry = &t});
    const auto rep = obs::audit_run(base_params("obg", cfg, 2), r.stats, &t);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
  {
    obs::Telemetry t;
    auto adversary = std::make_unique<sim::RandomCrashAdversary>(4, 0.02, 31);
    const auto r = baselines::run_early_deciding_renaming(
        cfg, std::move(adversary), {.telemetry = &t});
    const auto rep = obs::audit_run(base_params("early", cfg, 4), r.stats, &t);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
  {
    obs::Telemetry t;
    const auto r = baselines::run_claiming_renaming(
        cfg, nullptr, {.telemetry = &t});
    const auto rep =
        obs::audit_run(base_params("claiming", cfg, 0), r.stats, &t);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

TEST(BudgetAuditor, OverBudgetFixtureFails) {
  // A synthetic run that blows the crash message envelope by orders of
  // magnitude: the auditor must flag messages AND bits, and headroom must
  // go negative.
  sim::RunStats stats;
  stats.per_round.push_back({});
  stats.rounds = 1;
  stats.note_messages(1u << 30, raw_wire_bits(64));
  SystemConfig cfg = SystemConfig::random(64, 5ull * 64 * 64, 1);
  const auto report =
      obs::audit_run(base_params("crash", cfg, 4), stats, nullptr);
  EXPECT_FALSE(report.ok());
  bool messages_flagged = false;
  for (const auto& l : report.lines) {
    if (l.quantity == "messages") {
      EXPECT_FALSE(l.ok);
      EXPECT_LT(l.headroom(), 0.0);
      messages_flagged = true;
    }
  }
  EXPECT_TRUE(messages_flagged);
  // ...and the summary names the violation.
  EXPECT_NE(report.summary().find("FAIL"), std::string::npos);
  EXPECT_NE(report.summary().find("VIOLATION"), std::string::npos);
}

TEST(BudgetAuditor, QuadraticRunFailsTheSubquadraticEnvelope) {
  // Audit an n^2-per-round baseline against the paper's crash envelope:
  // the whole point of Theorem 1.2 is that this must not fit.
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 37);
  const auto r = baselines::run_cht_renaming(cfg);
  ASSERT_TRUE(r.report.ok());
  auto p = base_params("crash", cfg, 0);
  const auto report = obs::audit_run(p, r.stats, nullptr);
  EXPECT_FALSE(report.ok()) << report.summary();
}

TEST(BudgetAuditor, BrokenPhaseAttributionFailsTheDoubleEntryCheck) {
  // Telemetry that saw different traffic than the stats (here: nothing at
  // all) must fail the exact reconciliation lines, slack notwithstanding.
  sim::RunStats stats;
  stats.per_round.push_back({});
  stats.rounds = 1;
  stats.note_messages(10, raw_wire_bits(32));
  obs::Telemetry empty;
  SystemConfig cfg = SystemConfig::random(64, 5ull * 64 * 64, 2);
  auto p = base_params("crash", cfg, 0);
  p.slack = 1e9;
  const auto report = obs::audit_run(p, stats, &empty);
  EXPECT_FALSE(report.ok());
}

TEST(BudgetAuditor, SlackScalesTheEnvelopes) {
  sim::RunStats stats;
  stats.per_round.push_back({});
  stats.rounds = 1;
  stats.note_messages(1u << 30, raw_wire_bits(64));
  SystemConfig cfg = SystemConfig::random(64, 5ull * 64 * 64, 3);
  auto p = base_params("crash", cfg, 4);
  ASSERT_FALSE(obs::audit_run(p, stats, nullptr).ok());
  p.slack = 1e6;  // a million-fold slack swallows the fixture
  EXPECT_TRUE(obs::audit_run(p, stats, nullptr).ok());
}

}  // namespace
}  // namespace renaming
