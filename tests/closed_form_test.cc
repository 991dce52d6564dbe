// Closed-form baseline accounting (docs/PERFORMANCE.md §10): past the
// closed_form_cutoff, a failure-free CHT/OBG run is computed rather than
// simulated. The contract is EXACT equivalence — RunStats, outcomes,
// verification report, every telemetry ledger and the heartbeat's
// deterministic projection must be bit-identical to the simulated run, so
// the million-node BENCH cells and their Theorem audit gates
// (obs/budget.h) rest on accounting the engine itself would have produced.
// These tests force the cutoff down to 1 at small n and diff the two paths
// field by field, including non-power-of-two sizes where the halving round
// count and interval splits are least forgiving.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "baselines/cht_crash.h"
#include "baselines/obg_byzantine.h"
#include "common/math.h"
#include "obs/budget.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/parallel/plan.h"

namespace renaming::baselines {
namespace {

SystemConfig make_cfg(NodeIndex n, std::uint64_t seed) {
  return SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed);
}

void expect_same_outcomes(const std::vector<NodeOutcome>& sim,
                          const std::vector<NodeOutcome>& cf) {
  ASSERT_EQ(sim.size(), cf.size());
  for (std::size_t v = 0; v < sim.size(); ++v) {
    EXPECT_EQ(sim[v].original_id, cf[v].original_id) << "node " << v;
    EXPECT_EQ(sim[v].new_id, cf[v].new_id) << "node " << v;
    EXPECT_EQ(sim[v].correct, cf[v].correct) << "node " << v;
  }
}

void expect_same_telemetry(const obs::Telemetry& sim, const obs::Telemetry& cf,
                           const std::vector<sim::MsgKind>& kinds) {
  for (sim::MsgKind k : kinds) {
    EXPECT_EQ(sim.kind_messages(k), cf.kind_messages(k)) << "kind " << +k;
    EXPECT_EQ(sim.kind_bits(k), cf.kind_bits(k)) << "kind " << +k;
  }
  const auto& sp = sim.phase(obs::PhaseId::kBaselineExchange);
  const auto& cp = cf.phase(obs::PhaseId::kBaselineExchange);
  EXPECT_EQ(sp.messages, cp.messages);
  EXPECT_EQ(sp.bits, cp.bits);
  EXPECT_EQ(sim.per_round_active_senders(), cf.per_round_active_senders());
  EXPECT_TRUE(cf.instants().empty());
  EXPECT_TRUE(cf.spans().empty());
  EXPECT_EQ(sim.algorithm(), cf.algorithm());
  EXPECT_EQ(sim.n(), cf.n());
  EXPECT_EQ(sim.f(), cf.f());
}

// The live observers a closed-form run must feed like the engine does: a
// heartbeat and a shard profile, attached through the shard plan.
struct LiveObservers {
  obs::Progress progress;
  obs::ShardProfile profile;
  sim::parallel::ShardPlan plan() { return {.profile = &profile}; }
};

std::string heartbeat_projection(const obs::Progress& progress) {
  std::ostringstream out;
  for (const obs::ProgressSnapshot& s : progress.snapshots()) {
    obs::Progress::write_record(out, s, /*deterministic_only=*/true);
  }
  return out.str();
}

// The heartbeat's deterministic projection (round/messages/bits/active/
// crashes) matches the simulation, and the closed-form shard profile is a
// valid RNSP artifact that reads back and renders.
void expect_same_live_observers(const LiveObservers& sim,
                                const LiveObservers& cf, NodeIndex n,
                                Round rounds) {
  EXPECT_EQ(heartbeat_projection(sim.progress),
            heartbeat_projection(cf.progress))
      << "n=" << n;
  EXPECT_EQ(cf.progress.sampled(), rounds) << "n=" << n;
  std::stringstream rnsp;
  obs::write_shard_profile_binary(rnsp, cf.profile.data());
  obs::ShardProfileData loaded;
  std::string error;
  ASSERT_TRUE(obs::read_shard_profile_binary(rnsp, &loaded, &error))
      << "n=" << n << ": " << error;
  EXPECT_EQ(loaded, cf.profile.data()) << "n=" << n;
  EXPECT_EQ(loaded.shards, 1u) << "n=" << n;
  EXPECT_EQ(loaded.rounds, rounds) << "n=" << n;
  EXPECT_FALSE(obs::describe_shard_profile(loaded).empty()) << "n=" << n;
}

// The sizes deliberately include non-powers-of-two: ceil_log2 round counts
// and uneven bot/top interval splits are where a closed form would drift
// first if the halving analysis were sloppy.
constexpr NodeIndex kSizes[] = {2, 3, 5, 48, 96};

TEST(ClosedFormCht, ExactlyMatchesSimulation) {
  for (NodeIndex n : kSizes) {
    const auto cfg = make_cfg(n, 1000 + n);
    obs::Telemetry sim_tel;
    obs::Telemetry cf_tel;
    LiveObservers sim_live;
    LiveObservers cf_live;
    const auto sim = run_cht_renaming(
        cfg, nullptr, /*closed_form_cutoff=*/0,
        {.telemetry = &sim_tel,
         .progress = &sim_live.progress,
         .plan = sim_live.plan()});
    const auto cf = run_cht_renaming(
        cfg, nullptr, /*closed_form_cutoff=*/1,
        {.telemetry = &cf_tel,
         .progress = &cf_live.progress,
         .plan = cf_live.plan()});
    EXPECT_FALSE(sim.closed_form) << "n=" << n;
    EXPECT_TRUE(cf.closed_form) << "n=" << n;
    EXPECT_EQ(sim.stats, cf.stats) << "n=" << n;
    expect_same_outcomes(sim.outcomes, cf.outcomes);
    EXPECT_TRUE(cf.report.ok()) << "n=" << n;
    expect_same_telemetry(sim_tel, cf_tel, {31});
    expect_same_live_observers(sim_live, cf_live, n, cf.stats.rounds);
  }
}

TEST(ClosedFormObg, ExactlyMatchesSimulation) {
  for (NodeIndex n : kSizes) {
    const auto cfg = make_cfg(n, 2000 + n);
    obs::Telemetry sim_tel;
    obs::Telemetry cf_tel;
    LiveObservers sim_live;
    LiveObservers cf_live;
    const auto sim = run_obg_renaming(
        cfg, {}, ObgByzBehaviour::kSplitAnnounce, /*closed_form_cutoff=*/0,
        {.telemetry = &sim_tel,
         .progress = &sim_live.progress,
         .plan = sim_live.plan()});
    const auto cf = run_obg_renaming(
        cfg, {}, ObgByzBehaviour::kSplitAnnounce, /*closed_form_cutoff=*/1,
        {.telemetry = &cf_tel,
         .progress = &cf_live.progress,
         .plan = cf_live.plan()});
    EXPECT_FALSE(sim.closed_form) << "n=" << n;
    EXPECT_TRUE(cf.closed_form) << "n=" << n;
    EXPECT_EQ(sim.stats, cf.stats) << "n=" << n;
    expect_same_outcomes(sim.outcomes, cf.outcomes);
    EXPECT_TRUE(cf.report.ok()) << "n=" << n;
    expect_same_telemetry(sim_tel, cf_tel, {40, 41, 42});
    expect_same_live_observers(sim_live, cf_live, n, cf.stats.rounds);
  }
}

TEST(ClosedForm, BelowCutoffSimulates) {
  const auto cfg = make_cfg(48, 7);
  const auto cht = run_cht_renaming(cfg, nullptr, /*closed_form_cutoff=*/49);
  EXPECT_FALSE(cht.closed_form);
  const auto obg = run_obg_renaming(
      cfg, {}, ObgByzBehaviour::kSplitAnnounce, /*closed_form_cutoff=*/49);
  EXPECT_FALSE(obg.closed_form);
}

TEST(ClosedForm, FailuresForceSimulation) {
  // A non-zero crash budget (CHT) or any Byzantine node (OBG) makes the
  // execution adversary-dependent: the closed form must refuse.
  const auto cfg = make_cfg(48, 8);
  auto adversary = std::make_unique<sim::RandomCrashAdversary>(4, 0.5, 11);
  const auto cht = run_cht_renaming(
      cfg, std::move(adversary), /*closed_form_cutoff=*/1);
  EXPECT_FALSE(cht.closed_form);
  EXPECT_TRUE(cht.report.ok());
  const auto obg = run_obg_renaming(
      cfg, {3, 17}, ObgByzBehaviour::kForgeIds, /*closed_form_cutoff=*/1);
  EXPECT_FALSE(obg.closed_form);
}

TEST(ClosedForm, JournalForcesSimulation) {
  // Journal fingerprints hash real per-delivery events; they cannot be
  // closed-formed, so an attached journal always simulates — and the bytes
  // must match a cutoff-free run exactly.
  const auto cfg = make_cfg(48, 9);
  obs::Journal plain;
  obs::Journal gated;
  const auto sim = run_cht_renaming(cfg, nullptr, /*closed_form_cutoff=*/0,
                                    {.journal = &plain});
  const auto cf = run_cht_renaming(
      cfg, nullptr, /*closed_form_cutoff=*/1, {.journal = &gated});
  EXPECT_FALSE(sim.closed_form);
  EXPECT_FALSE(cf.closed_form);
  EXPECT_EQ(sim.stats, cf.stats);
  std::ostringstream a;
  std::ostringstream b;
  obs::write_journal_binary(a, plain.data());
  obs::write_journal_binary(b, gated.data());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ClosedForm, AuditGatesStillPass) {
  // The point of exact accounting: the Theorem 1.2/1.3-style budget
  // envelopes (obs/budget.h) audit closed-form runs just like simulated
  // ones, per-kind wire-schema cross-checks included.
  const auto cfg = make_cfg(96, 10);
  {
    obs::Telemetry tel;
    const auto r = run_cht_renaming(
        cfg, nullptr, /*closed_form_cutoff=*/1, {.telemetry = &tel});
    ASSERT_TRUE(r.closed_form);
    obs::BudgetParams p;
    p.algorithm = "cht";
    p.n = cfg.n;
    p.f = 0;
    p.namespace_size = cfg.namespace_size;
    const auto report = obs::audit_run(p, r.stats, &tel);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
  {
    obs::Telemetry tel;
    const auto r = run_obg_renaming(
        cfg, {}, ObgByzBehaviour::kSplitAnnounce, /*closed_form_cutoff=*/1,
        {.telemetry = &tel});
    ASSERT_TRUE(r.closed_form);
    obs::BudgetParams p;
    p.algorithm = "obg";
    p.n = cfg.n;
    p.f = 0;
    p.namespace_size = cfg.namespace_size;
    const auto report = obs::audit_run(p, r.stats, &tel);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

}  // namespace
}  // namespace renaming::baselines
