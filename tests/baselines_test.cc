// Tests for the Table 1 baselines: the naive floor, the CHT/Okun-style
// all-to-all crash renaming, and the OBG-style Byzantine renaming.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/cht_crash.h"
#include "baselines/claiming.h"
#include "baselines/early_deciding.h"
#include "baselines/naive.h"
#include "baselines/obg_byzantine.h"
#include "common/math.h"
#include "sim/adversary.h"

namespace renaming::baselines {
namespace {

TEST(Naive, FaultFreeCorrectAndQuadratic) {
  const NodeIndex n = 100;
  const auto cfg = SystemConfig::random(n, n * n * 5, 1);
  const auto result = run_naive_renaming(cfg);
  EXPECT_TRUE(result.report.ok(true));  // also order-preserving
  EXPECT_EQ(result.stats.total_messages, static_cast<std::uint64_t>(n) * n);
  EXPECT_EQ(result.stats.rounds, 1u);
}

TEST(Naive, MidSendCrashBreaksUniqueness) {
  // Negative control: a crash mid-broadcast splits the views and produces
  // duplicates — renaming is not just "collect and sort".
  const NodeIndex n = 32;
  bool violated = false;
  for (std::uint64_t seed = 1; seed <= 30 && !violated; ++seed) {
    const auto cfg = SystemConfig::random(n, n * n * 5, seed);
    auto adversary = std::make_unique<sim::RandomCrashAdversary>(4, 1.0, seed);
    const auto result = run_naive_renaming(cfg, std::move(adversary));
    violated = !result.report.unique;
  }
  EXPECT_TRUE(violated) << "expected at least one uniqueness violation";
}

TEST(ChtCrash, FaultFreeAllSizes) {
  for (NodeIndex n : {2u, 3u, 5u, 16u, 33u, 100u, 256u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n);
    const auto result = run_cht_renaming(cfg);
    EXPECT_TRUE(result.report.ok())
        << "n=" << n << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
    EXPECT_LE(result.stats.rounds, ceil_log2(n) + 1);
  }
}

TEST(ChtCrash, QuadraticMessageCost) {
  const NodeIndex n = 128;
  const auto cfg = SystemConfig::random(n, n * n * 5, 3);
  const auto result = run_cht_renaming(cfg);
  ASSERT_TRUE(result.report.ok());
  // Every round is all-to-all: exactly n^2 * rounds messages.
  EXPECT_EQ(result.stats.total_messages,
            static_cast<std::uint64_t>(n) * n * result.stats.rounds);
}

TEST(ChtCrash, SurvivesAggressiveMidSendCrashes) {
  const NodeIndex n = 64;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed);
    auto adversary =
        std::make_unique<sim::RandomCrashAdversary>(n / 2, 0.15, seed * 7);
    const auto result = run_cht_renaming(cfg, std::move(adversary));
    EXPECT_TRUE(result.report.ok())
        << "seed=" << seed << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
  }
}

TEST(ChtCrash, SurvivesNearTotalCrashes) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 77);
  auto adversary = std::make_unique<sim::RandomCrashAdversary>(n - 1, 0.5, 5);
  const auto result = run_cht_renaming(cfg, std::move(adversary));
  EXPECT_TRUE(result.report.ok());
}

TEST(ObgByzantine, FaultFree) {
  for (NodeIndex n : {4u, 16u, 64u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n + 1);
    const auto result = run_obg_renaming(cfg);
    EXPECT_TRUE(result.report.ok(true)) << "n=" << n;
  }
}

TEST(ObgByzantine, BigMessagesAreItsSignature) {
  // The baseline ships Omega(n log N)-bit messages — that is the Table 1
  // row the paper's O(log N)-bit algorithms improve on.
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 2);
  const auto result = run_obg_renaming(cfg);
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_GE(result.stats.max_message_bits,
            n * ceil_log2(cfg.namespace_size) / 2);
}


TEST(ObgByzantineDeathTest, RejectsAFaultyIndexListedTwice) {
  const auto cfg = SystemConfig::random(16, 16 * 16 * 5, 1);
  EXPECT_DEATH(run_obg_renaming(cfg, {3, 3}), "faulty node index listed twice");
}

TEST(ObgByzantineDeathTest, RejectsAFaultyIndexOutsideTheSystem) {
  const auto cfg = SystemConfig::random(16, 16 * 16 * 5, 1);
  EXPECT_DEATH(run_obg_renaming(cfg, {16}), "faulty node index is not below n");
}

TEST(EarlyDeciding, FaultFreeDecidesInTwoRounds) {
  for (NodeIndex n : {4u, 32u, 128u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n + 9);
    const auto result = run_early_deciding_renaming(cfg);
    EXPECT_TRUE(result.report.ok(true)) << "n=" << n;
    EXPECT_EQ(result.max_decision_round, 2u) << "n=" << n;
  }
}

TEST(EarlyDeciding, DecisionRoundTracksFaults) {
  // The early-deciding property of Table 1 row 3: rounds scale with the
  // number of crashes that actually happen, not with n.
  const NodeIndex n = 128;
  Round prev = 0;
  for (std::uint64_t f : {0ull, 4ull, 16ull, 48ull}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 71);
    auto adversary =
        std::make_unique<sim::RandomCrashAdversary>(f, 0.5, f * 3 + 1);
    const auto result = run_early_deciding_renaming(cfg, std::move(adversary));
    ASSERT_TRUE(result.report.ok()) << "f=" << f;
    EXPECT_LE(result.max_decision_round, 2 * f + 2) << "f=" << f;
    EXPECT_GE(result.max_decision_round, prev > 2 ? 2u : prev) << "f=" << f;
    prev = result.max_decision_round;
  }
}

TEST(EarlyDeciding, SurvivesChaosMidSendCrashes) {
  const NodeIndex n = 64;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed + 400);
    auto adversary =
        std::make_unique<sim::ChaosCrashAdversary>(n / 2, 0.2, seed * 19);
    const auto result = run_early_deciding_renaming(cfg, std::move(adversary));
    EXPECT_TRUE(result.report.ok())
        << "seed=" << seed << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
  }
}

TEST(EarlyDeciding, BigMessagesAreItsPrice) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 5);
  const auto result = run_early_deciding_renaming(cfg);
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_GE(result.stats.max_message_bits,
            n * ceil_log2(cfg.namespace_size) / 2);
}


TEST(Claiming, FaultFreeAllSizes) {
  for (NodeIndex n : {2u, 5u, 16u, 64u, 256u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n + 13);
    const auto result = run_claiming_renaming(cfg);
    EXPECT_TRUE(result.report.ok())
        << "n=" << n << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
  }
}

TEST(Claiming, RoundsGrowLogarithmically) {
  // A constant fraction of the undecided nodes wins each round, so the
  // round count grows like log n: explicit cap 6 * ceil(log2 n) + 6.
  for (NodeIndex n : {64u, 256u, 1024u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n + 17);
    const auto result = run_claiming_renaming(cfg);
    ASSERT_TRUE(result.report.ok()) << "n=" << n;
    EXPECT_LE(result.stats.rounds, 6 * ceil_log2(n) + 6) << "n=" << n;
  }
}

TEST(Claiming, SurvivesChaosCrashes) {
  const NodeIndex n = 96;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed + 500);
    auto adversary =
        std::make_unique<sim::ChaosCrashAdversary>(n / 2, 0.15, seed * 23);
    const auto result = run_claiming_renaming(cfg, std::move(adversary));
    EXPECT_TRUE(result.report.ok())
        << "seed=" << seed << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
  }
}

TEST(Claiming, RecyclesSlotsGrabbedByGhosts) {
  // Kill half the nodes *while they claim* in the very first rounds; the
  // survivors must still end with a full, unique assignment — which is
  // only possible if ghost-held slots return to the pool.
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 601);
  auto adversary = std::make_unique<sim::ChaosCrashAdversary>(n / 2, 0.9, 77);
  const auto result = run_claiming_renaming(cfg, std::move(adversary));
  EXPECT_TRUE(result.report.ok());
  EXPECT_GT(result.stats.crashes, 0u);
}

using ObgParam = std::tuple<NodeIndex, int, int>;

class ObgSweep : public ::testing::TestWithParam<ObgParam> {};

TEST_P(ObgSweep, SurvivesImplementedStrategies) {
  const auto [n, f_div, behaviour_id] = GetParam();
  const NodeIndex f = f_div == 0 ? 0 : n / f_div;
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n * 31 + f);
  std::vector<NodeIndex> byz;
  for (NodeIndex i = 0; i < f; ++i) byz.push_back(i * (n / (f + 1)) + 1);
  const auto behaviour = static_cast<ObgByzBehaviour>(behaviour_id);
  const auto result = run_obg_renaming(cfg, byz, behaviour);
  EXPECT_TRUE(result.report.ok())
      << "n=" << n << " f=" << f << " behaviour=" << behaviour_id << " : "
      << (result.report.violations.empty() ? ""
                                           : result.report.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ObgSweep,
    ::testing::Combine(::testing::Values<NodeIndex>(16, 48, 96),
                       ::testing::Values(0, 8, 4),  // f = 0, n/8, n/4
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace renaming::baselines
