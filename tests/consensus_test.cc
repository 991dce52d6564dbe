// Tests for the consensus substrate: CommitteeView, PhaseKing (Lemma 3.4
// interface) and Validator (Lemma 3.3 interface), driven through the real
// engine with honest and equivocating members.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/prng.h"
#include "consensus/committee.h"
#include "consensus/phase_king.h"
#include "consensus/validator.h"
#include "sim/engine.h"
#include "sim/wire_schema.h"

namespace renaming::consensus {
namespace {

// Every message below, honest or forged, is sent at kKind's row width.
constexpr sim::wire::Kind kKind = sim::wire::Kind::kConsensus;
constexpr sim::wire::WireContext kCtx{64, 5ull * 64 * 64};

CommitteeView make_view(NodeIndex m) {
  std::vector<Member> members;
  for (NodeIndex i = 0; i < m; ++i) {
    members.push_back({static_cast<OriginalId>(100 + 7 * i), i});
  }
  return CommitteeView(std::move(members));
}

TEST(CommitteeView, SortedDedupedAndTolerance) {
  CommitteeView v({{30, 2}, {10, 0}, {20, 1}, {10, 0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.member(0).id, 10u);
  EXPECT_EQ(v.member(2).id, 30u);
  EXPECT_EQ(v.max_tolerated(), 0u);
  EXPECT_EQ(make_view(4).max_tolerated(), 1u);
  EXPECT_EQ(make_view(7).max_tolerated(), 2u);
  EXPECT_EQ(make_view(10).max_tolerated(), 3u);
  EXPECT_EQ(v.index_of_link(1), 1u);
  EXPECT_EQ(v.index_of_link(9), CommitteeView::npos);
}

TEST(CommitteeView, IndexOfLinkMatchesLinearScan) {
  // Views of 0..300 members whose links are spread at random, packed into
  // one consecutive run, packed against n, or chosen to share one home
  // slot of the lookup table (its Fibonacci hash at the table size the
  // view picks), so probes walk long collision chains. Every link in
  // [0, n) is checked, on a private view and on an interned one.
  Xoshiro256 rng(0x100c);
  ViewInterner interner;
  for (int trial = 0; trial < 240; ++trial) {
    auto n = static_cast<NodeIndex>(512 + rng.below(8192));
    std::size_t m = static_cast<std::size_t>(trial) * 301 / 240;
    std::vector<NodeIndex> links;
    switch (trial % 4) {
      case 0: {  // random, possibly naming one link twice
        for (std::size_t i = 0; i < m; ++i) {
          links.push_back(static_cast<NodeIndex>(rng.below(n)));
        }
        break;
      }
      case 1: {  // one consecutive run
        const auto start = static_cast<NodeIndex>(rng.below(n - m));
        for (std::size_t i = 0; i < m; ++i) {
          links.push_back(start + static_cast<NodeIndex>(i));
        }
        break;
      }
      case 2: {  // against n
        for (std::size_t i = 0; i < m; ++i) {
          links.push_back(n - 1 - static_cast<NodeIndex>(i));
        }
        break;
      }
      default: {  // one home slot
        m = std::min<std::size_t>(m, 40);
        std::size_t table = 2;
        while (table < 2 * m) table *= 2;
        const int shift = 64 - std::countr_zero(table);
        const std::uint64_t home = rng.below(table);
        n = std::max(n, static_cast<NodeIndex>(table * m));
        for (NodeIndex link = 0; link < n && links.size() < m; ++link) {
          if (((std::uint64_t{link} * 0x9e3779b97f4a7c15ULL) >> shift) ==
              home) {
            links.push_back(link);
          }
        }
      }
    }
    std::vector<Member> members;
    for (NodeIndex link : links) {
      members.push_back({1 + rng.below(1u << 30), link});
    }
    const CommitteeView view(members);
    const std::shared_ptr<const CommitteeView> interned =
        interner.intern(/*caller=*/0, members);
    ASSERT_EQ(view.members(), interned->members());
    // Linear scan: the first member (in view order) holding each link.
    std::vector<std::size_t> expected(n, CommitteeView::npos);
    for (std::size_t i = view.size(); i-- > 0;) {
      expected[view.member(i).link] = i;
    }
    for (NodeIndex link = 0; link < n; ++link) {
      ASSERT_EQ(view.index_of_link(link), expected[link])
          << "trial " << trial << " link " << link;
      ASSERT_EQ(interned->index_of_link(link), expected[link])
          << "trial " << trial << " link " << link;
    }
    EXPECT_EQ(view.index_of_link(kNoNode), CommitteeView::npos);
  }
  EXPECT_EQ(CommitteeView().index_of_link(0), CommitteeView::npos);
}

/// Drives one SubProtocol instance per node over the engine.
class HarnessNode : public sim::Node {
 public:
  HarnessNode(std::unique_ptr<SubProtocol> protocol)
      : protocol_(std::move(protocol)) {}

  void send(Round round, sim::Outbox& out) override {
    if (!finished_) protocol_->send(round - 1, out);
  }
  void receive(Round round, sim::InboxView inbox) override {
    if (!finished_) finished_ = protocol_->receive(round - 1, inbox);
  }
  bool done() const override { return finished_; }

  SubProtocol& protocol() { return *protocol_; }

 private:
  std::unique_ptr<SubProtocol> protocol_;
  bool finished_ = false;
};

/// Byzantine member that equivocates: flips payload words per recipient.
class EquivocatorNode : public sim::Node {
 public:
  EquivocatorNode(const CommitteeView& view, NodeIndex self,
                  std::uint64_t seed)
      : view_(view), self_(self), rng_(seed + self) {}

  void send(Round, sim::Outbox& out) override {
    // Send random protocol-shaped garbage to every member, twice (the
    // dedup logic must keep only the first).
    for (int volley = 0; volley < 2; ++volley) {
      for (const Member& m : view_.members()) {
        out.send(m.link,
                 sim::wire::make_message(kKind, kCtx, std::uint64_t{0},
                                         rng_.below(3), rng_(), rng_(),
                                         rng_()));
      }
    }
  }
  void receive(Round, sim::InboxView) override {}
  bool done() const override { return true; }

 private:
  const CommitteeView& view_;
  NodeIndex self_;
  Xoshiro256 rng_;
};

struct ConsensusSetup {
  CommitteeView view;
  std::vector<bool> byz;
};

/// Runs PhaseKing over m members with given inputs; byz members equivocate.
std::vector<bool> run_phase_king(const CommitteeView& view,
                                 const std::vector<int>& inputs,
                                 const std::vector<bool>& byz,
                                 std::uint64_t seed,
                                 std::vector<bool>* correct_mask = nullptr) {
  const NodeIndex m = static_cast<NodeIndex>(view.size());
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) {
      nodes.push_back(std::make_unique<EquivocatorNode>(view, i, seed));
    } else {
      nodes.push_back(std::make_unique<HarnessNode>(
          std::make_unique<PhaseKing>(view, i, /*session=*/0, kKind, kCtx,
                                      inputs[i] != 0)));
    }
  }
  sim::Engine engine(std::move(nodes));
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) engine.mark_byzantine(i);
  }
  engine.run(1000);
  std::vector<bool> outputs(m, false);
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) continue;
    auto& h = dynamic_cast<HarnessNode&>(engine.node(i));
    EXPECT_TRUE(h.done()) << "phase king did not terminate";
    outputs[i] = dynamic_cast<PhaseKing&>(h.protocol()).output();
  }
  if (correct_mask != nullptr) {
    correct_mask->assign(byz.begin(), byz.end());
    correct_mask->flip();
  }
  return outputs;
}

TEST(PhaseKing, ValidityAllSameInput) {
  for (bool b : {false, true}) {
    const auto view = make_view(7);
    std::vector<int> inputs(7, b ? 1 : 0);
    std::vector<bool> byz(7, false);
    const auto out = run_phase_king(view, inputs, byz, 1);
    for (NodeIndex i = 0; i < 7; ++i) EXPECT_EQ(out[i], b);
  }
}

TEST(PhaseKing, AgreementMixedInputsNoByzantine) {
  const auto view = make_view(6);
  std::vector<int> inputs = {0, 1, 0, 1, 1, 0};
  std::vector<bool> byz(6, false);
  const auto out = run_phase_king(view, inputs, byz, 2);
  for (NodeIndex i = 1; i < 6; ++i) EXPECT_EQ(out[i], out[0]);
}

TEST(PhaseKing, AgreementUnderMaxEquivocators) {
  // m = 10, t = 3: place 3 equivocators (including the first kings, the
  // worst positions) and sweep mixed inputs and seeds.
  const auto view = make_view(10);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<int> inputs(10);
    Xoshiro256 rng(seed);
    for (auto& x : inputs) x = static_cast<int>(rng.below(2));
    std::vector<bool> byz(10, false);
    byz[0] = byz[1] = byz[2] = true;  // first three kings are Byzantine
    const auto out = run_phase_king(view, inputs, byz, seed);
    int reference = -1;
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) continue;
      if (reference < 0) reference = out[i];
      EXPECT_EQ(static_cast<int>(out[i]), reference) << "seed=" << seed;
    }
  }
}

TEST(PhaseKing, ValidityUnderEquivocatorsWhenCorrectAgree) {
  const auto view = make_view(10);
  for (bool b : {false, true}) {
    std::vector<int> inputs(10, b ? 1 : 0);
    std::vector<bool> byz(10, false);
    byz[3] = byz[7] = byz[9] = true;
    const auto out = run_phase_king(view, inputs, byz, 5);
    for (NodeIndex i = 0; i < 10; ++i) {
      if (!byz[i]) {
        EXPECT_EQ(out[i], b);
      }
    }
  }
}

TEST(PhaseKing, SingleMemberTrivial) {
  const auto view = make_view(1);
  const auto out = run_phase_king(view, {1}, {false}, 3);
  EXPECT_TRUE(out[0]);
}

/// Runs Validator over m members; returns (same, out) per correct member.
struct ValidatorOutcome {
  bool same;
  ValidatorValue out;
};

std::vector<ValidatorOutcome> run_validator(
    const CommitteeView& view, const std::vector<ValidatorValue>& inputs,
    const std::vector<bool>& byz, std::uint64_t seed) {
  const NodeIndex m = static_cast<NodeIndex>(view.size());
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) {
      nodes.push_back(std::make_unique<EquivocatorNode>(view, i, seed));
    } else {
      nodes.push_back(std::make_unique<HarnessNode>(std::make_unique<Validator>(
          view, i, /*session=*/0, kKind, kCtx, inputs[i])));
    }
  }
  sim::Engine engine(std::move(nodes));
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) engine.mark_byzantine(i);
  }
  engine.run(10);
  std::vector<ValidatorOutcome> outcomes(m);
  for (NodeIndex i = 0; i < m; ++i) {
    if (byz[i]) continue;
    auto& h = dynamic_cast<HarnessNode&>(engine.node(i));
    EXPECT_TRUE(h.done());
    auto& v = dynamic_cast<Validator&>(h.protocol());
    outcomes[i] = {v.same(), v.output()};
  }
  return outcomes;
}

TEST(Validator, StrongValidityAllSame) {
  const auto view = make_view(7);
  const ValidatorValue in{0xABCD, 42};
  std::vector<ValidatorValue> inputs(7, in);
  std::vector<bool> byz(7, false);
  byz[2] = byz[5] = true;  // t = 2 equivocators
  const auto out = run_validator(view, inputs, byz, 7);
  for (NodeIndex i = 0; i < 7; ++i) {
    if (byz[i]) continue;
    EXPECT_TRUE(out[i].same);
    EXPECT_EQ(out[i].out, in);
  }
}

TEST(Validator, WeakAgreementAndValidityUnderSplit) {
  // Correct members hold two different values; whatever happens, outputs
  // must be some correct member's input, and if anyone reports same=1 all
  // correct outputs must coincide.
  const auto view = make_view(9);
  const ValidatorValue a{1, 10}, b{2, 20};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<ValidatorValue> inputs(9, a);
    for (NodeIndex i = 4; i < 9; ++i) inputs[i] = b;
    std::vector<bool> byz(9, false);
    byz[0] = byz[8] = true;
    const auto out = run_validator(view, inputs, byz, seed);
    bool any_same = false;
    for (NodeIndex i = 0; i < 9; ++i) {
      if (byz[i]) continue;
      any_same |= out[i].same;
      EXPECT_TRUE(out[i].out == a || out[i].out == b)
          << "output fabricated, seed=" << seed;
    }
    if (any_same) {
      const ValidatorValue ref = [&] {
        for (NodeIndex i = 0; i < 9; ++i) {
          if (!byz[i]) return out[i].out;
        }
        return ValidatorValue{};
      }();
      for (NodeIndex i = 0; i < 9; ++i) {
        if (!byz[i]) {
          EXPECT_EQ(out[i].out, ref) << "seed=" << seed;
        }
      }
    }
  }
}

TEST(Validator, NoQuorumKeepsOwnInputFamily) {
  // Three-way split among correct members, no Byzantine: nobody can vote,
  // so every member keeps a correct value (its own).
  const auto view = make_view(6);
  std::vector<ValidatorValue> inputs = {{1, 1}, {1, 1}, {2, 2},
                                        {2, 2}, {3, 3}, {3, 3}};
  std::vector<bool> byz(6, false);
  const auto out = run_validator(view, inputs, byz, 3);
  for (NodeIndex i = 0; i < 6; ++i) {
    EXPECT_FALSE(out[i].same);
    EXPECT_EQ(out[i].out, inputs[i]);
  }
}


/// Worst-case coordinated attacker: votes 0 to the first half of the view
/// and 1 to the second half every vote round, and equivocates as king.
class SplitVoteNode : public sim::Node {
 public:
  SplitVoteNode(const CommitteeView& view, std::uint64_t session)
      : view_(view), session_(session) {}

  void send(Round round, sim::Outbox& out) override {
    const std::uint32_t step = round - 1;
    const std::uint64_t subkind = step % 2;  // alternate vote/king shapes
    for (std::size_t i = 0; i < view_.size(); ++i) {
      const std::uint64_t value = i < view_.size() / 2 ? 0 : 1;
      out.send(view_.member(i).link,
               sim::wire::make_message(kKind, kCtx, session_, subkind, value));
    }
  }
  void receive(Round, sim::InboxView) override {}
  bool done() const override { return true; }

 private:
  const CommitteeView& view_;
  std::uint64_t session_;
};

TEST(PhaseKing, AgreementUnderSplitVoteAttack) {
  const auto view = make_view(10);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<int> inputs(10);
    Xoshiro256 rng(seed * 3);
    for (auto& x : inputs) x = static_cast<int>(rng.below(2));
    std::vector<bool> byz(10, false);
    byz[0] = byz[4] = byz[9] = true;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) {
        nodes.push_back(std::make_unique<SplitVoteNode>(view, 0));
      } else {
        nodes.push_back(std::make_unique<HarnessNode>(
            std::make_unique<PhaseKing>(view, i, 0, kKind, kCtx,
                                        inputs[i] != 0)));
      }
    }
    sim::Engine engine(std::move(nodes));
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) engine.mark_byzantine(i);
    }
    engine.run(100);
    int reference = -1;
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) continue;
      auto& h = dynamic_cast<HarnessNode&>(engine.node(i));
      ASSERT_TRUE(h.done());
      const int out = dynamic_cast<PhaseKing&>(h.protocol()).output();
      if (reference < 0) reference = out;
      EXPECT_EQ(out, reference) << "seed=" << seed;
    }
  }
}

TEST(Validator, SplitVoteAttackCannotFabricateOutput) {
  const auto view = make_view(10);
  const ValidatorValue a{11, 1}, b{22, 2};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<std::unique_ptr<sim::Node>> nodes;
    std::vector<bool> byz(10, false);
    byz[2] = byz[5] = byz[8] = true;
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) {
        nodes.push_back(std::make_unique<SplitVoteNode>(view, 0));
      } else {
        nodes.push_back(std::make_unique<HarnessNode>(
            std::make_unique<Validator>(view, i, 0, kKind, kCtx,
                                        i < 5 ? a : b)));
      }
    }
    sim::Engine engine(std::move(nodes));
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) engine.mark_byzantine(i);
    }
    engine.run(10);
    for (NodeIndex i = 0; i < 10; ++i) {
      if (byz[i]) continue;
      auto& h = dynamic_cast<HarnessNode&>(engine.node(i));
      ASSERT_TRUE(h.done());
      const auto& v = dynamic_cast<Validator&>(h.protocol());
      EXPECT_TRUE(v.output() == a || v.output() == b)
          << "fabricated output, seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace renaming::consensus
