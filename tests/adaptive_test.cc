// The Section 3.2 negative experiment: an adaptive adversary that corrupts
// committee members the moment they are elected defeats the committee-based
// algorithm, while a static adversary with the same budget does not.
#include <gtest/gtest.h>

#include "byzantine/adaptive.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"

namespace renaming::byzantine {
namespace {

ByzParams params_for_test() {
  ByzParams p;
  p.pool_constant = 3.0;
  p.shared_seed = 41;
  return p;
}

TEST(Adaptive, ZeroBudgetIsJustTheHonestRun) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 1);
  const auto r = run_adaptive_experiment(cfg, params_for_test(), 0);
  EXPECT_TRUE(r.report.ok(true));
  EXPECT_EQ(r.corrupted, 0u);
}

TEST(Adaptive, WholeCommitteeCorruptionWrecksTheRun) {
  // Budget >= committee size: every member turns silent right after the
  // election; no correct node can ever decide.
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 2);
  const auto r = run_adaptive_experiment(cfg, params_for_test(), n);
  EXPECT_GT(r.corrupted, 0u);
  EXPECT_EQ(r.corrupted, r.committee_size);
  EXPECT_FALSE(r.report.all_correct_decided);
  EXPECT_FALSE(r.report.ok());
}

TEST(Adaptive, StaticAdversaryWithSameBudgetFails) {
  // The same number of corruptions placed *before* the election (static
  // Carlo) lands mostly on non-members and the protocol succeeds — the
  // contrast the paper's discussion predicts. We corrupt the same count of
  // nodes as the adaptive run turned, spread statically.
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 2);
  const auto adaptive = run_adaptive_experiment(cfg, params_for_test(), n);
  ASSERT_GT(adaptive.corrupted, 0u);
  const NodeIndex f =
      std::min<NodeIndex>(static_cast<NodeIndex>(adaptive.corrupted),
                          (n / 3) - 1);
  const auto static_run = run_byz_renaming(
      cfg, params_for_test(), spread_faulty(n, f),
      [](NodeIndex, const SystemConfig&, const Directory&,
         const ByzParams&) -> std::unique_ptr<sim::Node> {
        return std::make_unique<SilentNode>();
      });
  EXPECT_TRUE(static_run.report.ok(true))
      << (static_run.report.violations.empty()
              ? ""
              : static_run.report.violations[0]);
}

TEST(Adaptive, PartialCorruptionBelowToleranceStillSucceeds) {
  // Corrupting fewer members than the phase-king tolerance t leaves the
  // committee functional: silence is within the Byzantine budget.
  const NodeIndex n = 96;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 3);
  // Find the committee size first (budget 0 dry run), then corrupt t of it.
  const auto dry = run_adaptive_experiment(cfg, params_for_test(), 0);
  ASSERT_TRUE(dry.report.ok(true));
  const std::uint64_t t = (dry.committee_size - 1) / 3;
  if (t == 0) GTEST_SKIP() << "committee too small for a meaningful test";
  const auto r = run_adaptive_experiment(cfg, params_for_test(), t);
  EXPECT_EQ(r.corrupted, t);
  EXPECT_TRUE(r.report.ok(true))
      << (r.report.violations.empty() ? "" : r.report.violations[0]);
}

}  // namespace
}  // namespace renaming::byzantine
