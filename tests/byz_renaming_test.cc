// Integration + property tests for the Byzantine-resilient renaming
// algorithm (Theorem 1.3 and the lemmas of Section 3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "obs/journal.h"
#include "sim/engine.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"
#include "sim/trace.h"
#include "test_support.h"

namespace renaming::byzantine {
namespace {

ByzParams test_params(double pool_constant = 4.0, std::uint64_t seed = 99) {
  ByzParams p;
  p.pool_constant = pool_constant;
  p.shared_seed = seed;
  return p;
}

std::unique_ptr<sim::Node> silent_factory(NodeIndex, const SystemConfig&,
                                          const Directory&,
                                          const ByzParams&) {
  return std::make_unique<SilentNode>();
}

/// Deterministically picks `f` Byzantine nodes spread across the system.
std::vector<NodeIndex> pick_byz(NodeIndex n, NodeIndex f, std::uint64_t seed) {
  std::vector<NodeIndex> byz;
  Xoshiro256 rng(seed ^ 0xB142ULL);
  std::vector<bool> used(n, false);
  while (byz.size() < f) {
    const NodeIndex v = static_cast<NodeIndex>(rng.below(n));
    if (!used[v]) {
      used[v] = true;
      byz.push_back(v);
    }
  }
  return byz;
}

TEST(ByzRenaming, FailureFreeSmall) {
  for (NodeIndex n : {4u, 9u, 16u, 33u, 64u}) {
    const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, n + 7);
    const auto result = run_byz_renaming(cfg, test_params());
    EXPECT_TRUE(result.report.ok(/*require_order=*/true))
        << "n=" << n << " : "
        << (result.report.violations.empty() ? ""
                                             : result.report.violations[0]);
  }
}

TEST(ByzRenaming, FailureFreeIsOrderPreserving) {
  const auto cfg = SystemConfig::random(100, 100 * 100 * 5, 3);
  const auto result = run_byz_renaming(cfg, test_params());
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_TRUE(result.report.order_preserving);
}

TEST(ByzRenaming, FailureFreeAcceptsWholeListFirstIteration) {
  // With no Byzantine nodes all correct members hold identical lists: the
  // very first divide-and-conquer iteration accepts [1, N] whole.
  const auto cfg = SystemConfig::random(64, 64 * 64 * 5, 11);
  const auto result = run_byz_renaming(cfg, test_params());
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_EQ(result.loop_iterations, 1u);
}

TEST(ByzRenaming, MessagesAreLogNBits) {
  const auto cfg = SystemConfig::random(64, 64 * 64 * 5, 12);
  const auto result = run_byz_renaming(cfg, test_params());
  ASSERT_TRUE(result.report.ok(true));
  // O(log N): fingerprint field (61) + counts + control.
  EXPECT_LE(result.stats.max_message_bits,
            61 + 3 * ceil_log2(cfg.namespace_size) + 32);
}

TEST(ByzRenaming, SurvivesSilentByzantines) {
  const NodeIndex n = 60;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 21);
  const auto byz = pick_byz(n, n / 6, 5);
  const auto result = run_byz_renaming(cfg, test_params(), byz,
                                       &silent_factory);
  EXPECT_TRUE(result.report.ok(true))
      << (result.report.violations.empty() ? ""
                                           : result.report.violations[0]);
}

TEST(ByzRenaming, SurvivesSplitReporters) {
  const NodeIndex n = 60;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 22);
  const auto byz = pick_byz(n, n / 6, 6);
  const auto result =
      run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
  EXPECT_TRUE(result.report.ok(true))
      << (result.report.violations.empty() ? ""
                                           : result.report.violations[0]);
  // Split reporting forces actual divide-and-conquer work.
  EXPECT_GT(result.loop_iterations, 1u);
}

TEST(ByzRenaming, SurvivesLyingMembers) {
  const NodeIndex n = 60;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 23);
  const auto byz = pick_byz(n, n / 8, 7);
  const auto result =
      run_byz_renaming(cfg, test_params(), byz, &LyingMember::make);
  EXPECT_TRUE(result.report.ok(true))
      << (result.report.violations.empty() ? ""
                                           : result.report.violations[0]);
}

TEST(ByzRenaming, SurvivesSpoofersAndCountsAttempts) {
  const NodeIndex n = 40;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 24);
  const auto byz = pick_byz(n, 4, 8);
  const auto result = run_byz_renaming(cfg, test_params(), byz,
                                       &Spoofer::make);
  EXPECT_TRUE(result.report.ok(true));
  EXPECT_GT(result.stats.spoofs_rejected, 0u);
}

TEST(ByzRenaming, DeterministicGivenSeed) {
  const auto cfg = SystemConfig::random(48, 48 * 48 * 5, 31);
  const auto byz = pick_byz(48, 6, 9);
  const auto a = run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
  const auto b = run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  for (NodeIndex v = 0; v < 48; ++v) {
    EXPECT_EQ(a.outcomes[v].new_id, b.outcomes[v].new_id);
  }
}

TEST(ByzRenaming, LoopIterationsScaleWithFaults) {
  // Lemma 3.10: the while loop terminates within 4 f log N iterations; the
  // failure-free run takes exactly one.
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 41);
  std::uint32_t prev = 0;
  for (NodeIndex f : {0u, 2u, 6u}) {
    const auto byz = pick_byz(n, f, 10);
    const auto result =
        run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
    ASSERT_TRUE(result.report.ok(true)) << "f=" << f;
    EXPECT_LE(result.loop_iterations,
              f == 0 ? 1u : 8u * f * ceil_log2(cfg.namespace_size))
        << "f=" << f;
    EXPECT_GE(result.loop_iterations, prev) << "f=" << f;
    prev = result.loop_iterations;
  }
}

TEST(ByzRenaming, ClusteredNamespaceStillWorks) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::clustered(n, static_cast<std::uint64_t>(n) * n * 5, 51, 3);
  const auto byz = pick_byz(n, 6, 11);
  const auto result =
      run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
  EXPECT_TRUE(result.report.ok(true));
}

TEST(ByzRenaming, PaperConstantFullCommitteeAlsoWorks) {
  // With the paper's own p0 every node is a committee member.
  const auto cfg = SystemConfig::random(24, 24 * 24 * 5, 61);
  ByzParams params;  // pool_constant = 0 => paper's formula (=> p0 = 1 here)
  params.shared_seed = 5;
  const auto result = run_byz_renaming(cfg, params);
  EXPECT_TRUE(result.report.ok(true));
}


TEST(ByzRenamingDeathTest, RejectsAFaultyIndexListedTwice) {
  const auto cfg = SystemConfig::random(16, 16 * 16 * 5, 1);
  EXPECT_DEATH(run_byz_renaming(cfg, test_params(), {3, 3}, silent_factory),
               "faulty node index listed twice");
}

TEST(ByzRenamingDeathTest, RejectsAFaultyIndexOutsideTheSystem) {
  const auto cfg = SystemConfig::random(16, 16 * 16 * 5, 1);
  EXPECT_DEATH(run_byz_renaming(cfg, test_params(), {16}, silent_factory),
               "faulty node index is not below n");
}

TEST(ByzRenaming, PoolProbabilityFormula) {
  ByzParams paper;  // pool_constant = 0 selects the paper's constant
  // 8 / ((1 - 3 eps) eps^2) with eps = 1/12: 8 / ((3/4)(1/144)) = 1536.
  // At n = 4096 (log2 = 12): p0 = 1536 * 12 / 4096 = 4.5 -> clamped to 1.
  EXPECT_DOUBLE_EQ(paper.pool_probability(4096), 1.0);
  ByzParams small;
  small.pool_constant = 2.0;
  EXPECT_NEAR(small.pool_probability(1024), 2.0 * 10 / 1024.0, 1e-12);
  EXPECT_LE(small.pool_probability(4), 1.0);
}

TEST(ViewInterner, HonestViewsStayOnePerShardUnderAPlan) {
  // The committee-view pool keeps one map per engine shard, so a plan of K
  // shards leaves honest nodes at most K distinct view objects (exactly
  // one at K = 1), never one private copy each.
  const NodeIndex n = 512;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 41);
  const ByzParams params = test_params(3.0, 41);
  const Directory directory(cfg);
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : {1u, 2u, 3u, 8u}) {
    consensus::ViewInterner views;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) {
      nodes.push_back(
          std::make_unique<ByzNode>(v, cfg, directory, params, views));
    }
    sim::Engine engine(std::move(nodes), nullptr,
                       {.plan = {.pool = &pool, .shards = shards}});
    views.bind_shards(&engine.shard_map());
    const sim::RunStats stats = engine.run(100000);
    ASSERT_GT(stats.rounds, 1u);
    std::vector<const consensus::CommitteeView*> distinct;
    for (NodeIndex v = 0; v < n; ++v) {
      const auto& node = dynamic_cast<const ByzNode&>(engine.node(v));
      ASSERT_FALSE(node.view().empty()) << "node " << v;
      distinct.push_back(&node.view());
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    EXPECT_LE(distinct.size(), shards) << "K=" << shards;
    if (shards == 1) {
      EXPECT_EQ(distinct.size(), 1u);
    }
  }
}

TEST(ByzRenaming, NewIdsAreContiguousRanks) {
  // Implementation property stronger than Definition 1.1: the assigned
  // names are exactly the ranks 1..M for some M <= n with no holes among
  // correct nodes (Byzantine identities may or may not consume a rank).
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 91);
  const auto byz = pick_byz(n, 6, 14);
  const auto result =
      run_byz_renaming(cfg, test_params(), byz, &SplitReporter::make);
  ASSERT_TRUE(result.report.ok(true));
  std::vector<NewId> ids;
  for (const auto& o : result.outcomes) {
    if (o.correct && o.new_id) ids.push_back(*o.new_id);
  }
  std::sort(ids.begin(), ids.end());
  // Gaps can only be ranks consumed by Byzantine identities (<= |byz|).
  std::uint64_t gaps = ids.back() - ids.size();
  EXPECT_LE(gaps, byz.size());
}

// --- Idle forwarding of the pure-filter strategies ------------------------

/// Runs a strategy with its idle() withheld: every callback forwards, and
/// the engine runs the node every round as it did before the strategy
/// forwarded its core's idle().
class ForcedActive final : public sim::Node {
 public:
  explicit ForcedActive(std::unique_ptr<sim::Node> inner)
      : inner_(std::move(inner)) {}
  void send(Round round, sim::Outbox& out) override {
    inner_->send(round, out);
  }
  void receive(Round round, sim::InboxView inbox) override {
    inner_->receive(round, inbox);
  }
  bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<sim::Node> inner_;
};

template <ByzStrategyFactory Make>
std::unique_ptr<sim::Node> forced_active(NodeIndex v, const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
  return std::make_unique<ForcedActive>(Make(v, cfg, directory, params));
}

/// Six nodes; node 2's identity misses the candidate pool and node 0's
/// makes it, under the first shared seed where both hold.
struct NonMemberSetup {
  SystemConfig cfg;
  ByzParams params;
  std::vector<sim::Message> elects;  // round-1 inbox: the pool's ELECTs

  NonMemberSetup() {
    cfg.n = 6;
    cfg.namespace_size = 1000;
    for (NodeIndex v = 0; v < cfg.n; ++v) cfg.ids.push_back(50 * (v + 1));
    cfg.seed = 3;
    params.pool_constant = 1.0;
    const Directory directory(cfg);
    consensus::ViewInterner views;
    for (params.shared_seed = 1;; ++params.shared_seed) {
      std::vector<sim::Message> round_one;
      for (NodeIndex v = 0; v < cfg.n; ++v) {
        ByzNode node(v, cfg, directory, params, views);
        sim::Outbox out(v, cfg.n);
        node.send(1, out);
        if (node.elected()) round_one.push_back(out.entries()[0].second);
      }
      const auto elected = [&](NodeIndex v) {
        return std::any_of(
            round_one.begin(), round_one.end(),
            [v](const sim::Message& m) { return m.sender == v; });
      };
      if (!elected(2) && elected(0)) {
        elects = std::move(round_one);
        return;
      }
    }
  }
};

TEST(StrategyIdle, PureFiltersIdleOnceTheirCoreIsDone) {
  const NonMemberSetup setup;
  const Directory directory(setup.cfg);
  for (ByzStrategyFactory make :
       {&SplitReporter::make, &PrefixReporter::make, &DoubleDealer::make}) {
    std::unique_ptr<sim::Node> node =
        make(2, setup.cfg, directory, setup.params);
    EXPECT_FALSE(node->idle());
    sim::Outbox out(2, setup.cfg.n);
    node->send(1, out);
    node->receive(1, test_support::Slots(setup.elects));
    EXPECT_FALSE(node->idle()) << "its identity report is still owed";
    out.clear();
    node->send(2, out);
    EXPECT_GT(out.size(), 0u) << "a non-member reports to the view";
    node->receive(2, sim::InboxView());
    EXPECT_TRUE(node->idle()) << "the core waits in kDone";
    out.clear();
    node->send(3, out);
    EXPECT_EQ(out.size(), 0u);
  }
}

TEST(StrategyIdle, LyingMemberNeverIdlesAndItsVolleyLands) {
  const NonMemberSetup setup;
  const Directory directory(setup.cfg);
  std::unique_ptr<sim::Node> node =
      LyingMember::make(2, setup.cfg, directory, setup.params);
  sim::Outbox out(2, setup.cfg.n);
  node->send(1, out);
  node->receive(1, test_support::Slots(setup.elects));
  out.clear();
  node->send(2, out);
  node->receive(2, sim::InboxView());
  EXPECT_FALSE(node->idle());
  out.clear();
  node->send(3, out);
  EXPECT_EQ(out.size(), setup.cfg.n) << "one forged NEW per link";

  // In a run, every LyingMember's round-3 volley reaches the wire, the
  // non-members' too (a small pool leaves most of them outside).
  const NodeIndex n = 48;
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 41);
  const auto byz = pick_byz(n, 6, 15);
  struct NewCounter final : sim::TraceSink {
    const std::vector<NodeIndex>* byz = nullptr;
    std::uint64_t forged = 0;
    void on_message(Round round, const sim::Message& m, NodeIndex,
                    bool) override {
      if (round == 3 && m.kind == sim::wire::raw(sim::wire::Kind::kNew) &&
          std::find(byz->begin(), byz->end(), m.sender) != byz->end()) {
        ++forged;
      }
    }
  } counter;
  counter.byz = &byz;
  const auto result = run_byz_renaming(cfg, test_params(1.5), byz,
                                       &LyingMember::make, 0,
                                       {.trace = &counter});
  EXPECT_TRUE(result.report.ok(true));
  EXPECT_GE(counter.forged, std::uint64_t{byz.size()} * n);
}

TEST(StrategyIdle, ForwardingIsObservationallyInvisible) {
  // Same RunStats, outcomes and trace bytes as the same strategies forced
  // active, while the forwarding run skips its idle faulty nodes.
  const NodeIndex n = 48;
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 22);
  const auto byz = pick_byz(n, 4, 6);
  struct Observed {
    sim::RunStats stats;
    std::vector<NodeOutcome> outcomes;
    std::string trace;
    std::uint64_t active_senders = 0;
  };
  const auto run = [&](ByzStrategyFactory factory) {
    std::ostringstream out;
    sim::JsonlTrace trace(out);
    obs::Journal journal;
    // A small pool leaves the faulty nodes outside the committee.
    const auto result =
        run_byz_renaming(cfg, test_params(1.5), byz, factory, 0,
                         {.trace = &trace, .journal = &journal});
    EXPECT_TRUE(result.report.ok(true));
    Observed o{result.stats, result.outcomes, out.str()};
    for (const obs::JournalRound& r : journal.data().records) {
      o.active_senders += r.active_senders;
    }
    return o;
  };
  const std::pair<ByzStrategyFactory, ByzStrategyFactory> pairs[] = {
      {&SplitReporter::make, &forced_active<&SplitReporter::make>},
      {&PrefixReporter::make, &forced_active<&PrefixReporter::make>},
      {&DoubleDealer::make, &forced_active<&DoubleDealer::make>}};
  for (const auto& [forwarding, forced] : pairs) {
    const Observed a = run(forwarding);
    const Observed b = run(forced);
    EXPECT_EQ(a.stats, b.stats);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t v = 0; v < a.outcomes.size(); ++v) {
      EXPECT_EQ(a.outcomes[v].original_id, b.outcomes[v].original_id);
      EXPECT_EQ(a.outcomes[v].new_id, b.outcomes[v].new_id) << "node " << v;
      EXPECT_EQ(a.outcomes[v].correct, b.outcomes[v].correct);
    }
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_LT(a.active_senders, b.active_senders);
  }
}

// --- Parameterized sweep over (n, f, strategy, seed) ---------------------

using ByzSweepParam = std::tuple<NodeIndex, int, int, std::uint64_t>;

class ByzSweep : public ::testing::TestWithParam<ByzSweepParam> {};

TEST_P(ByzSweep, CorrectUniqueOrderPreserving) {
  const auto [n, f_num, strategy, seed] = GetParam();
  const NodeIndex f = static_cast<NodeIndex>(n * f_num / 24);  // 0..n/4
  // Alternate namespace shapes: uniform (hard for density assumptions) and
  // clustered (hard for the divide-and-conquer segment structure).
  const auto cfg =
      seed % 2 == 1
          ? SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5,
                                 seed)
          : SystemConfig::clustered(n, static_cast<std::uint64_t>(n) * n * 5,
                                    seed, 4);
  const auto byz = pick_byz(n, f, seed * 13 + 1);
  ByzStrategyFactory factory = nullptr;
  switch (strategy) {
    case 0: factory = &silent_factory; break;
    case 1: factory = &SplitReporter::make; break;
    case 2: factory = &LyingMember::make; break;
    case 3: factory = &Spoofer::make; break;
    case 4: factory = &PrefixReporter::make; break;
    case 5: factory = &DoubleDealer::make; break;
    default: FAIL();
  }
  const auto result = run_byz_renaming(cfg, test_params(4.0, seed), byz,
                                       factory);
  EXPECT_TRUE(result.report.ok(/*require_order=*/true))
      << "n=" << n << " f=" << f << " strategy=" << strategy
      << " seed=" << seed << " : "
      << (result.report.violations.empty() ? ""
                                           : result.report.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyGrid, ByzSweep,
    ::testing::Combine(::testing::Values<NodeIndex>(24, 48, 72),
                       ::testing::Values(0, 3, 6),  // f = n*k/24
                       ::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values<std::uint64_t>(1, 2)));

}  // namespace
}  // namespace renaming::byzantine
