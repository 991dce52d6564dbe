// Mid-execution invariant checks for the paper's key lemmas. A pass-through
// "observer" adversary inspects the full system state every round (the
// full-information interface Eve already has) and records violations of:
//
//  * Lemma 2.3  — for every alive node v, the number of alive nodes whose
//                 interval is contained in I_v never exceeds |I_v|;
//  * Lemma 2.5  — at every phase end, max p - min p <= 1 over alive nodes;
//  * monotone d — depths never decrease;
//  * Lemma 3.8  — all correct committee members of the Byzantine algorithm
//                 hold identical pending/processed segment partitions
//                 (observed at quiescence via identical outcomes + counts).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "sim/engine.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"

namespace renaming {
namespace {

/// Non-owning adapter: lets a test own an observer adversary on its stack
/// while the engine (which takes ownership of its adversary) borrows it.
class BorrowedAdversary final : public sim::CrashAdversary {
 public:
  explicit BorrowedAdversary(sim::CrashAdversary* inner) : inner_(inner) {}
  std::vector<sim::CrashOrder> decide(const sim::AdversaryView& view) override {
    return inner_->decide(view);
  }
  std::uint64_t budget() const override { return inner_->budget(); }

 private:
  sim::CrashAdversary* inner_;
};

/// Wraps an inner crash adversary; between decisions, audits Lemma 2.3 and
/// Lemma 2.5 over the live CrashNode states.
class CrashInvariantObserver final : public sim::CrashAdversary {
 public:
  explicit CrashInvariantObserver(std::unique_ptr<sim::CrashAdversary> inner)
      : inner_(std::move(inner)) {}

  std::vector<sim::CrashOrder> decide(const sim::AdversaryView& view) override {
    audit(view);
    return inner_ ? inner_->decide(view) : std::vector<sim::CrashOrder>{};
  }

  std::uint64_t budget() const override {
    return inner_ ? inner_->budget() : 0;
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void audit(const sim::AdversaryView& view) {
    std::vector<const crash::CrashNode*> alive;
    for (NodeIndex v = 0; v < view.n; ++v) {
      if (!view.is_alive(v)) continue;
      alive.push_back(dynamic_cast<const crash::CrashNode*>(&view.node(v)));
    }
    // Lemma 2.3: |V(I_v)| <= |I_v|.
    for (const auto* v : alive) {
      std::uint64_t packed = 0;
      for (const auto* u : alive) {
        packed += u->interval().subset_of(v->interval());
      }
      if (packed > v->interval().size()) {
        violations_.push_back("Lemma 2.3: interval " +
                              v->interval().to_string() + " holds " +
                              std::to_string(packed) + " nodes at round " +
                              std::to_string(view.round));
      }
    }
    // Lemma 2.5 (checked at phase boundaries: before round 1 of the next
    // phase, i.e. when view.round % 3 == 1 and round > 1).
    if (view.round % 3 == 1 && view.round > 1 && !alive.empty()) {
      std::uint32_t pmin = alive[0]->p(), pmax = alive[0]->p();
      for (const auto* u : alive) {
        pmin = std::min(pmin, u->p());
        pmax = std::max(pmax, u->p());
      }
      if (pmax > pmin + 1) {
        violations_.push_back("Lemma 2.5: p spread " + std::to_string(pmin) +
                              ".." + std::to_string(pmax) + " at round " +
                              std::to_string(view.round));
      }
    }
    // Depth monotonicity per node.
    if (depths_.empty()) depths_.resize(view.n, 0);
    for (NodeIndex v = 0; v < view.n; ++v) {
      if (!view.is_alive(v)) continue;
      const auto* node = dynamic_cast<const crash::CrashNode*>(&view.node(v));
      if (node->depth() < depths_[v]) {
        violations_.push_back("depth decreased at node " + std::to_string(v));
      }
      depths_[v] = node->depth();
    }
  }

  std::unique_ptr<sim::CrashAdversary> inner_;
  std::vector<std::string> violations_;
  std::vector<std::uint32_t> depths_;
};

crash::CrashParams small_committee() {
  crash::CrashParams p;
  p.election_constant = 3.0;
  return p;
}

TEST(CrashInvariants, HoldEveryRoundFailureFree) {
  const auto cfg = SystemConfig::random(128, 128u * 128u * 5u, 1);
  CrashInvariantObserver observer(nullptr);
  const auto result = crash::run_crash_renaming(
      cfg, small_committee(), std::make_unique<BorrowedAdversary>(&observer));
  ASSERT_TRUE(result.report.ok());
  EXPECT_TRUE(observer.violations().empty())
      << observer.violations().size() << " violations, first: "
      << observer.violations()[0];
}

TEST(CrashInvariants, HoldUnderCommitteeHunter) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto cfg = SystemConfig::random(96, 96u * 96u * 5u, seed);
    CrashInvariantObserver observer(std::make_unique<crash::CommitteeHunter>(
        48, crash::CommitteeHunter::Mode::kAtAnnounce, seed * 11));
    const auto result = crash::run_crash_renaming(
        cfg, small_committee(),
        std::make_unique<BorrowedAdversary>(&observer));
    ASSERT_TRUE(result.report.ok()) << "seed=" << seed;
    EXPECT_TRUE(observer.violations().empty())
        << "seed=" << seed << " first: " << observer.violations()[0];
  }
}

TEST(CrashInvariants, HoldUnderMidResponseChaos) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto cfg = SystemConfig::random(96, 96u * 96u * 5u, seed + 50);
    CrashInvariantObserver observer(std::make_unique<crash::CommitteeHunter>(
        48, crash::CommitteeHunter::Mode::kMidResponse, seed * 13, 0.5));
    const auto result = crash::run_crash_renaming(
        cfg, small_committee(),
        std::make_unique<BorrowedAdversary>(&observer));
    ASSERT_TRUE(result.report.ok()) << "seed=" << seed;
    EXPECT_TRUE(observer.violations().empty())
        << "seed=" << seed << " first: " << observer.violations()[0];
  }
}

TEST(CrashInvariants, HoldUnderCombinedRandomCrashes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto cfg = SystemConfig::random(80, 80u * 80u * 5u, seed + 100);
    CrashInvariantObserver observer(
        std::make_unique<sim::RandomCrashAdversary>(79, 0.12, seed * 17));
    const auto result = crash::run_crash_renaming(
        cfg, small_committee(),
        std::make_unique<BorrowedAdversary>(&observer));
    ASSERT_TRUE(result.report.ok()) << "seed=" << seed;
    EXPECT_TRUE(observer.violations().empty())
        << "seed=" << seed << " first: " << observer.violations()[0];
  }
}


/// Executable counterparts of Lemma 2.2 and Lemma 2.4: phase-grained
/// progress. At each phase boundary, if some committee member survived
/// the whole previous phase, the minimum undecided depth must have grown
/// (L2.2); if no member existed at the phase end, the minimum p must grow
/// by the end of the next phase (L2.4).
class ProgressObserver final : public sim::CrashAdversary {
 public:
  explicit ProgressObserver(std::unique_ptr<sim::CrashAdversary> inner)
      : inner_(std::move(inner)) {}

  std::vector<sim::CrashOrder> decide(const sim::AdversaryView& view) override {
    // Observe at the start of round 1 of each phase (i.e. the state at the
    // end of the previous phase). Lemma 2.2 quantifies over nodes that
    // were members at the *start* of the phase and survived it whole, so
    // the elected set is snapshotted at every boundary and compared one
    // phase later against aliveness.
    if (view.round % 3 == 1) {
      if (view.round > 1) audit_phase_boundary(view);
      elected_at_phase_start_.assign(view.n, false);
      for (NodeIndex v = 0; v < view.n; ++v) {
        if (!view.is_alive(v)) continue;
        const auto* node =
            dynamic_cast<const crash::CrashNode*>(&view.node(v));
        elected_at_phase_start_[v] = node->elected();
      }
    }
    return inner_ ? inner_->decide(view) : std::vector<sim::CrashOrder>{};
  }

  std::uint64_t budget() const override { return inner_ ? inner_->budget() : 0; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct PhaseState {
    std::uint32_t min_undecided_depth = 0;
    bool any_undecided = false;
    std::uint32_t min_p = 0;
    bool member_survived_phase = false;
    bool any_member_at_end = false;
  };

  static PhaseState snapshot(const sim::AdversaryView& view,
                             const std::vector<bool>& elected_at_start) {
    PhaseState st;
    std::uint32_t min_d = ~0u, min_p = ~0u;
    for (NodeIndex v = 0; v < view.n; ++v) {
      if (!view.is_alive(v)) continue;  // crashed mid-phase: not a survivor
      const auto* node = dynamic_cast<const crash::CrashNode*>(&view.node(v));
      min_p = std::min(min_p, node->p());
      if (!node->interval().singleton()) {
        st.any_undecided = true;
        min_d = std::min(min_d, node->depth());
      }
      st.any_member_at_end |= node->elected();
      st.member_survived_phase |=
          v < elected_at_start.size() && elected_at_start[v];
    }
    st.min_undecided_depth = st.any_undecided ? min_d : ~0u;
    st.min_p = min_p == ~0u ? 0 : min_p;
    return st;
  }

  void audit_phase_boundary(const sim::AdversaryView& view) {
    const PhaseState now = snapshot(view, elected_at_phase_start_);
    if (have_prev_) {
      // Lemma 2.2: surviving member across the phase => depth progress
      // (unless everyone decided, in which case progress is complete).
      if (prev_.any_undecided && now.any_undecided &&
          now.member_survived_phase &&
          now.min_undecided_depth <= prev_.min_undecided_depth &&
          prev_.min_undecided_depth != ~0u) {
        violations_.push_back("Lemma 2.2: member survived phase ending at round " +
                              std::to_string(view.round - 1) +
                              " but min depth did not increase");
      }
      // Lemma 2.4: no member at previous phase end => min p grew.
      if (!prev_.any_member_at_end && now.min_p <= prev_.min_p) {
        violations_.push_back("Lemma 2.4: committee extinct at round " +
                              std::to_string(view.round - 4) +
                              " but min p did not increase");
      }
    }
    prev_ = now;
    have_prev_ = true;
  }

  std::unique_ptr<sim::CrashAdversary> inner_;
  std::vector<std::string> violations_;
  std::vector<bool> elected_at_phase_start_;
  PhaseState prev_;
  bool have_prev_ = false;
};

TEST(CrashProgress, Lemma22And24HoldUnderCommitteeHunters) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const NodeIndex n = 96;
    const auto cfg = SystemConfig::random(n, 96u * 96u * 5u, seed + 700);
    ProgressObserver observer(std::make_unique<crash::CommitteeHunter>(
        64, crash::CommitteeHunter::Mode::kAtAnnounce, seed * 29));
    const auto result = crash::run_crash_renaming(
        cfg, small_committee(),
        std::make_unique<BorrowedAdversary>(&observer));
    ASSERT_TRUE(result.report.ok()) << "seed=" << seed;
    EXPECT_TRUE(observer.violations().empty())
        << "seed=" << seed << " first: " << observer.violations()[0];
  }
}

TEST(CrashProgress, Lemma22And24HoldFailureFree) {
  const auto cfg = SystemConfig::random(128, 128u * 128u * 5u, 900);
  ProgressObserver observer(nullptr);
  const auto result = crash::run_crash_renaming(
      cfg, small_committee(), std::make_unique<BorrowedAdversary>(&observer));
  ASSERT_TRUE(result.report.ok());
  EXPECT_TRUE(observer.violations().empty())
      << "first: " << observer.violations()[0];
}

// Lemma 3.8-flavoured check for the Byzantine algorithm: all correct
// committee members finish with the same number of loop iterations and
// splits (their J/J-hat evolve in lockstep), and every correct member's
// dirty-segment count stays below the correct-quorum bound.
TEST(ByzInvariants, CommitteeLockstepUnderSplitReporters) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 9);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 77;
  std::vector<NodeIndex> byz = {2, 13, 29, 47};

  const Directory directory(cfg);
  consensus::ViewInterner views;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  std::vector<bool> is_byz(n, false);
  for (NodeIndex b : byz) is_byz[b] = true;
  for (NodeIndex v = 0; v < n; ++v) {
    if (is_byz[v]) {
      nodes.push_back(byzantine::SplitReporter::make(v, cfg, directory,
                                                     params));
    } else {
      nodes.push_back(
          std::make_unique<byzantine::ByzNode>(v, cfg, directory, params,
                                               views));
    }
  }
  sim::Engine engine(std::move(nodes));
  for (NodeIndex b : byz) engine.mark_byzantine(b);
  engine.run(100000);

  std::uint32_t iters = 0, splits = 0;
  bool first = true;
  std::size_t members = 0;
  for (NodeIndex v = 0; v < n; ++v) {
    if (is_byz[v]) continue;
    const auto& node = dynamic_cast<const byzantine::ByzNode&>(engine.node(v));
    ASSERT_TRUE(node.done()) << "node " << v << " undecided";
    if (!node.elected()) continue;
    ++members;
    if (first) {
      iters = node.loop_iterations();
      splits = node.segments_split();
      first = false;
    } else {
      EXPECT_EQ(node.loop_iterations(), iters) << "member " << v;
      EXPECT_EQ(node.segments_split(), splits) << "member " << v;
    }
    // A correct member can be "dirty" only where Byzantine reports split
    // the committee; with f split-reporters there are at most f dirty
    // leaf positions, each contributing <= 1 dirty segment to a member.
    EXPECT_LE(node.segments_dirty(), byz.size()) << "member " << v;
  }
  EXPECT_GE(members, 2u);
  EXPECT_GT(iters, 1u);  // split reporters force real recursion
}

}  // namespace
}  // namespace renaming
