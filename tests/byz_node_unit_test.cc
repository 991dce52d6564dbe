// White-box unit tests for ByzNode stages: election + view construction
// (with authentication rejections), identity aggregation, the NEW-message
// decision threshold, and the kFullExchange ablation path — all driven
// with hand-crafted inboxes.
#include <gtest/gtest.h>

#include <algorithm>

#include "byzantine/byz_renaming.h"
#include "obs/provenance.h"
#include "test_support.h"

namespace renaming::byzantine {
namespace {

using sim::wire::Kind;
using sim::wire::raw;
using test_support::copies;
using test_support::raw_wire_bits;
using test_support::Slots;

SystemConfig fixed_config(NodeIndex n = 6) {
  SystemConfig cfg;
  cfg.n = n;
  cfg.namespace_size = 1000;
  for (NodeIndex v = 0; v < n; ++v) cfg.ids.push_back(50 * (v + 1));
  cfg.seed = 3;
  return cfg;
}

ByzParams everyone_in_pool() {
  ByzParams p;
  p.pool_constant = 1e9;  // p0 clamps to 1: every identity is a candidate
  p.shared_seed = 11;
  return p;
}

sim::Message tagged(Kind tag, NodeIndex sender, std::uint64_t w0) {
  auto m = sim::make_message(raw(tag), raw_wire_bits(32), w0);
  m.sender = sender;
  m.claimed_sender = sender;
  return m;
}

// Runs round 1 for a node whose pool holds everyone: all n nodes elect,
// so its view is the whole system.
void elect_everyone(ByzNode& node, NodeIndex self, const SystemConfig& cfg) {
  sim::Outbox out(self, cfg.n);
  node.send(1, out);
  std::vector<sim::Message> elects;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    elects.push_back(tagged(Kind::kElect, v, cfg.ids[v]));
  }
  node.receive(1, Slots(elects));
}

TEST(ByzNodeUnit, ElectionBroadcastsWhenInPool) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, everyone_in_pool(), views);
  sim::Outbox out(0, cfg.n);
  node.send(1, out);
  EXPECT_TRUE(node.elected());
  ASSERT_EQ(out.size(), cfg.n);
  for (const auto& [dest, msg] : out.entries()) {
    EXPECT_EQ(msg.kind, raw(Kind::kElect));
    EXPECT_EQ(msg.w[0], 50u);
  }
}

TEST(ByzNodeUnit, NoElectionWhenPoolEmpty) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  ByzParams params;
  params.pool_constant = 1e-12;  // p0 ~ 0
  params.shared_seed = 11;
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, params, views);
  sim::Outbox out(0, cfg.n);
  node.send(1, out);
  EXPECT_FALSE(node.elected());
  EXPECT_EQ(out.size(), 0u);
}

TEST(ByzNodeUnit, ViewRejectsForgedIdentityClaims) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, everyone_in_pool(), views);
  sim::Outbox out(0, cfg.n);
  node.send(1, out);
  std::vector<sim::Message> inbox = {
      tagged(Kind::kElect, 0, 50),    // self, valid
      tagged(Kind::kElect, 1, 100),   // valid
      tagged(Kind::kElect, 2, 999),   // node 2 claims an id it does not own
      tagged(Kind::kElect, 3, 100),   // node 3 claims node 1's identity
  };
  node.receive(1, Slots(inbox));
  EXPECT_EQ(node.view().size(), 2u);
  EXPECT_TRUE(node.view().contains_link(0));
  EXPECT_TRUE(node.view().contains_link(1));
  EXPECT_FALSE(node.view().contains_link(2));
  EXPECT_FALSE(node.view().contains_link(3));
}

TEST(ByzNodeUnit, ViewIsOrderedByOriginalId) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, everyone_in_pool(), views);
  sim::Outbox out(0, cfg.n);
  node.send(1, out);
  std::vector<sim::Message> inbox = {
      tagged(Kind::kElect, 3, 200),
      tagged(Kind::kElect, 1, 100),
      tagged(Kind::kElect, 5, 300),
  };
  node.receive(1, Slots(inbox));
  ASSERT_EQ(node.view().size(), 3u);
  EXPECT_EQ(node.view().member(0).id, 100u);
  EXPECT_EQ(node.view().member(1).id, 200u);
  EXPECT_EQ(node.view().member(2).id, 300u);
}

TEST(ByzNodeUnit, IdReportGoesToWholeView) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode node(2, cfg, dir, everyone_in_pool(), views);
  sim::Outbox skip(2, cfg.n);
  node.send(1, skip);
  node.receive(1, Slots({tagged(Kind::kElect, 0, 50),
                         tagged(Kind::kElect, 4, 250)}));
  sim::Outbox out(2, cfg.n);
  node.send(2, out);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& [dest, msg] : copies(out)) {
    EXPECT_EQ(msg.kind, raw(Kind::kIdReport));
    EXPECT_EQ(msg.w[0], 150u);  // node 2's identity
    EXPECT_TRUE(dest == 0 || dest == 4);
  }
}

class ByzNodeDecisionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = fixed_config();
    dir_ = std::make_unique<Directory>(cfg_);
    node_ = std::make_unique<ByzNode>(0, cfg_, *dir_, everyone_in_pool(),
                                      views_);
    // View: members at links 1..5 plus self => 6 members; majority = 4.
    elect_everyone(*node_, 0, cfg_);
    ASSERT_EQ(node_->view().size(), 6u);
  }

  SystemConfig cfg_;
  std::unique_ptr<Directory> dir_;
  consensus::ViewInterner views_;
  std::unique_ptr<ByzNode> node_;
};

TEST_F(ByzNodeDecisionTest, MinorityNewMessagesDoNotDecide) {
  // 3 of 6 view members (not > half) push a fake name early.
  std::vector<sim::Message> fakes = {tagged(Kind::kNew, 1, 5),
                                     tagged(Kind::kNew, 2, 5),
                                     tagged(Kind::kNew, 3, 5)};
  node_->receive(2, Slots(fakes));
  EXPECT_FALSE(node_->new_id().has_value());
}

TEST_F(ByzNodeDecisionTest, MajorityNewMessagesDecideOnPlurality) {
  std::vector<sim::Message> votes = {
      tagged(Kind::kNew, 1, 4), tagged(Kind::kNew, 2, 4),
      tagged(Kind::kNew, 3, 4), tagged(Kind::kNew, 4, 9),
      tagged(Kind::kNew, 5, 0),  // null vote: counted for quorum, not value
  };
  node_->receive(2, Slots(votes));
  ASSERT_TRUE(node_->new_id().has_value());
  EXPECT_EQ(*node_->new_id(), 4u);
}

TEST_F(ByzNodeDecisionTest, NonViewSendersAreIgnored) {
  // Link 1..3 are in view, but a burst from one sender repeated and one
  // non-member must not inflate the quorum.
  std::vector<sim::Message> votes = {
      tagged(Kind::kNew, 1, 4), tagged(Kind::kNew, 1, 4),
      tagged(Kind::kNew, 1, 4), tagged(Kind::kNew, 2, 4),
  };
  node_->receive(2, Slots(votes));
  EXPECT_FALSE(node_->new_id().has_value());  // only 2 distinct members
}

TEST_F(ByzNodeDecisionTest, OutOfRangeValuesNeverWin) {
  std::vector<sim::Message> votes = {
      tagged(Kind::kNew, 1, 777), tagged(Kind::kNew, 2, 777),
      tagged(Kind::kNew, 3, 777), tagged(Kind::kNew, 4, 777),
      tagged(Kind::kNew, 5, 2),
  };
  node_->receive(2, Slots(votes));
  // 777 > n is malformed; the only admissible value is 2.
  ASSERT_TRUE(node_->new_id().has_value());
  EXPECT_EQ(*node_->new_id(), 2u);
}

TEST_F(ByzNodeDecisionTest, TwoWayTieDecidesTheSmallerValue) {
  // 5 and 2 tie at two votes each; 5 arrives first, so the rule under test
  // is "smallest among the most-voted", not "first seen". (Values must be
  // ranks in [1, n] = [1, 6] to count at all.)
  std::vector<sim::Message> votes = {
      tagged(Kind::kNew, 1, 5), tagged(Kind::kNew, 2, 2),
      tagged(Kind::kNew, 3, 5), tagged(Kind::kNew, 4, 2),
  };
  node_->receive(2, Slots(votes));
  ASSERT_TRUE(node_->new_id().has_value());
  EXPECT_EQ(*node_->new_id(), 2u);
}

TEST_F(ByzNodeDecisionTest, FirstNewPerSenderWins) {
  // Sender 1 votes 4, then changes its mind to 6 in the same round and
  // again in the next one. With the first vote kept, 4 wins 3:2; had a
  // later vote replaced it, 6 would win 3:2.
  node_->receive(2, Slots({tagged(Kind::kNew, 1, 4), tagged(Kind::kNew, 1, 6),
                           tagged(Kind::kNew, 2, 4)}));
  EXPECT_FALSE(node_->new_id().has_value());  // two distinct senders so far
  node_->receive(3, Slots({tagged(Kind::kNew, 1, 6), tagged(Kind::kNew, 3, 4),
                           tagged(Kind::kNew, 4, 6),
                           tagged(Kind::kNew, 5, 6)}));
  ASSERT_TRUE(node_->new_id().has_value());
  EXPECT_EQ(*node_->new_id(), 4u);
}

TEST_F(ByzNodeDecisionTest, VotesSpreadOverRoundsDecideLikeOneInbox) {
  // The votes a node collects while undecided persist across rounds; the
  // decision frees them. Spread over three rounds they must decide what
  // the same deliveries decide in one inbox: 4 (first votes 4, 6, 6, 4;
  // the tie goes to the smaller). Had member 5's round-3 repeat replaced
  // its first vote, 6 would win 3:1.
  node_->receive(2, Slots({tagged(Kind::kNew, 5, 4),
                           tagged(Kind::kNew, 2, 6)}));
  EXPECT_FALSE(node_->new_id().has_value());  // 2 of 6: a minority
  node_->receive(3, Slots({tagged(Kind::kNew, 5, 6),
                           tagged(Kind::kNew, 1, 6)}));
  EXPECT_FALSE(node_->new_id().has_value());  // the repeat is no vote
  node_->receive(4, Slots({tagged(Kind::kNew, 3, 4)}));
  ASSERT_TRUE(node_->new_id().has_value());
  EXPECT_EQ(*node_->new_id(), 4u);

  ByzNode at_once(0, cfg_, *dir_, everyone_in_pool(), views_);
  elect_everyone(at_once, 0, cfg_);
  at_once.receive(2, Slots({tagged(Kind::kNew, 5, 4), tagged(Kind::kNew, 2, 6),
                            tagged(Kind::kNew, 5, 6), tagged(Kind::kNew, 1, 6),
                            tagged(Kind::kNew, 3, 4)}));
  EXPECT_EQ(at_once.new_id(), node_->new_id());

  // A decided node reads no further NEW message, not even a fresh
  // majority for another rank.
  node_->receive(5, Slots({tagged(Kind::kNew, 0, 5), tagged(Kind::kNew, 1, 5),
                           tagged(Kind::kNew, 2, 5), tagged(Kind::kNew, 4, 5),
                           tagged(Kind::kNew, 5, 5)}));
  EXPECT_EQ(*node_->new_id(), 4u);
}

TEST(ByzNodeUnit, NameClaimListsItsVotersInSenderOrder) {
  // Votes arrive out of sender order over two rounds; the claim's causes
  // name the voters of the adopted rank by ascending sender, each with the
  // wire bits of its vote.
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  obs::Provenance provenance;
  provenance.begin_run(cfg.n);
  ByzNode node(0, cfg, dir, everyone_in_pool(), views, nullptr, &provenance);
  elect_everyone(node, 0, cfg);
  node.receive(2, Slots({tagged(Kind::kNew, 4, 2), tagged(Kind::kNew, 1, 2),
                         tagged(Kind::kNew, 5, 3)}));
  node.receive(3, Slots({tagged(Kind::kNew, 3, 2)}));
  ASSERT_TRUE(node.new_id().has_value());
  EXPECT_EQ(*node.new_id(), 2u);
  provenance.end_run(3);

  std::vector<obs::ProvEvent> claims;
  for (const obs::ProvEvent& e : provenance.data().events) {
    if (e.kind == obs::ProvEventKind::kNameClaim) claims.push_back(e);
  }
  ASSERT_EQ(claims.size(), 1u);
  const obs::ProvEvent& claim = claims[0];
  EXPECT_EQ(claim.round, 3u);
  EXPECT_EQ(claim.a, 2u);  // the adopted rank
  EXPECT_EQ(claim.b, 3u);  // its supporting votes
  ASSERT_EQ(claim.cause_count, 3u);
  const NodeIndex voters[] = {1, 3, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(claim.causes[i].sender, voters[i]) << "cause " << i;
    EXPECT_EQ(claim.causes[i].msg_kind, raw(Kind::kNew));
    EXPECT_EQ(claim.causes[i].bits, 32u);
  }
}

using Sends = std::vector<std::pair<NodeIndex, std::uint64_t>>;

// Drives a committee made of nodes 0..k-1 (k = members.size(), every one of
// them elected) from their round-2 mailboxes to distribution, routing each
// round's member-to-member traffic by hand. Returns, per member, its
// distribution sends as (destination, NEW value) in send order.
std::vector<Sends> run_committee(const SystemConfig& cfg,
                                 const std::vector<ByzNode*>& members,
                                 const std::vector<std::vector<sim::Message>>&
                                     mailboxes) {
  const NodeIndex k = static_cast<NodeIndex>(members.size());
  std::vector<sim::Message> elects;
  for (NodeIndex v = 0; v < k; ++v) {
    elects.push_back(tagged(Kind::kElect, v, cfg.ids[v]));
  }
  for (NodeIndex v = 0; v < k; ++v) {
    sim::Outbox out(v, cfg.n);
    members[v]->send(1, out);
    members[v]->receive(1, Slots(elects));
    EXPECT_EQ(members[v]->view().size(), k);
    sim::Outbox report(v, cfg.n);
    members[v]->send(2, report);
    members[v]->receive(2, Slots(mailboxes[v]));
  }
  std::vector<Sends> sent(k);
  for (Round r = 3; r < 2000; ++r) {
    std::vector<std::vector<sim::Message>> inbox(k);
    bool all_done = true;
    for (NodeIndex v = 0; v < k; ++v) {
      if (members[v]->idle()) continue;
      sim::Outbox out(v, cfg.n);
      members[v]->send(r, out);
      for (const auto& [dest, msg] : copies(out)) {
        if (members[v]->idle()) {
          EXPECT_EQ(msg.kind, raw(Kind::kNew));
          sent[v].emplace_back(dest, msg.w[0]);
        } else if (dest < k) {
          inbox[dest].push_back(msg);
          inbox[dest].back().sender = v;
          inbox[dest].back().claimed_sender = v;
        }
      }
      all_done &= members[v]->idle();
    }
    if (all_done) return sent;
    for (NodeIndex v = 0; v < k; ++v) {
      members[v]->receive(r, Slots(inbox[v]));
    }
  }
  ADD_FAILURE() << "the committee never reached distribution";
  return sent;
}

TEST(ByzNodeUnit, RoundTwoKeepsEachVerifiedReportOnce) {
  auto cfg = fixed_config();
  cfg.ids[5] = 1500;  // genuinely owned, but outside the namespace [1, 1000]
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, everyone_in_pool(), views);
  const auto sent = run_committee(
      cfg, {&node},
      {{
          tagged(Kind::kIdReport, 3, 200),   // valid, arrives first
          tagged(Kind::kIdReport, 1, 100),   // valid
          tagged(Kind::kIdReport, 1, 100),   // the same sender reports twice
          tagged(Kind::kIdReport, 2, 250),   // forged: node 2 owns 150
          tagged(Kind::kIdReport, 5, 1500),  // out of the namespace
          tagged(Kind::kIdReport, 0, 50),    // self
      }});
  // The list is {50, 100, 200}: one NEW(rank) per held identity, addressed
  // to the node that reported it. A duplicate would shift the ranks, and an
  // accepted forgery or out-of-namespace id would add a message.
  EXPECT_EQ(sent[0], (Sends{{0, 1}, {1, 2}, {3, 3}}));
  EXPECT_EQ(node.loop_iterations(), 1u);  // one member agrees at the root
  EXPECT_EQ(node.segments_dirty(), 0u);

  // The member's own NEW(1) names it.
  std::vector<sim::Message> mine = {tagged(Kind::kNew, 0, 1)};
  node.receive(1000, Slots(mine));
  ASSERT_TRUE(node.new_id().has_value());
  EXPECT_EQ(*node.new_id(), 1u);
}

TEST(ByzNodeUnit, IdentityAddedBySingletonConsensusIsStillAddressed) {
  // Member 1 never hears node 3's report. The two members disagree on the
  // root, split down to the singleton {200}, and phase-king (member 0 is
  // the first king, and holds the bit) adds 200 to member 1's list. Member
  // 1 must then address NEW(3) to node 3 although no report told it where.
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  ByzNode a(0, cfg, dir, everyone_in_pool(), views);
  ByzNode b(1, cfg, dir, everyone_in_pool(), views);
  const std::vector<sim::Message> heard_by_both = {
      tagged(Kind::kIdReport, 0, 50), tagged(Kind::kIdReport, 1, 100)};
  auto heard_by_a = heard_by_both;
  heard_by_a.push_back(tagged(Kind::kIdReport, 3, 200));
  const auto sent = run_committee(cfg, {&a, &b}, {heard_by_a, heard_by_both});
  EXPECT_EQ(sent[0], (Sends{{0, 1}, {1, 2}, {3, 3}}));
  EXPECT_EQ(sent[1], sent[0]);
  EXPECT_GT(b.segments_split(), 0u);
  EXPECT_EQ(a.loop_iterations(), b.loop_iterations());
}

TEST(ByzNodeUnit, DirtyMemberSendsNullToItsReportersOnly) {
  // Four members tolerate t = 1. Member 3 alone misses node 4's report: one
  // DIFF vote is below t + 1, so the root is accepted with the majority's
  // count, member 3 marks it dirty and sends NEW(null) to each reporter it
  // heard, in id order, while the others send every rank.
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  std::vector<std::unique_ptr<ByzNode>> nodes;
  std::vector<ByzNode*> members;
  for (NodeIndex v = 0; v < 4; ++v) {
    nodes.push_back(
        std::make_unique<ByzNode>(v, cfg, dir, everyone_in_pool(), views));
    members.push_back(nodes.back().get());
  }
  std::vector<sim::Message> all;
  for (NodeIndex v : {3, 1, 4, 0, 2}) {  // arrival order is not id order
    all.push_back(tagged(Kind::kIdReport, v, cfg.ids[v]));
  }
  std::vector<sim::Message> missing_node4 = all;
  missing_node4.erase(missing_node4.begin() + 2);
  const auto sent =
      run_committee(cfg, members, {all, all, all, missing_node4});
  const Sends ranks = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  for (NodeIndex v = 0; v < 3; ++v) {
    EXPECT_EQ(sent[v], ranks) << "member " << v;
    EXPECT_EQ(members[v]->segments_dirty(), 0u);
  }
  EXPECT_EQ(sent[3], (Sends{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));
  EXPECT_EQ(members[3]->segments_dirty(), 1u);
}

TEST(ByzNodeUnit, DirtySegmentPastTheFirstReachesOnlyItsOwnReporters) {
  // Members 2 and 3 both miss node 4's report (id 250): two DIFF votes
  // reach t + 1 = 2, so the segments holding 250 split down to the
  // singleton, where consensus adds it. Member 3 alone also misses node 5
  // (id 300); the segment [251, 500] holding it is accepted, and member 3
  // marks it dirty. It heard no report inside that segment, so it sends
  // no NEW(null) at all, while its ranks below 251 still go out.
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  consensus::ViewInterner views;
  std::vector<std::unique_ptr<ByzNode>> nodes;
  std::vector<ByzNode*> members;
  for (NodeIndex v = 0; v < 4; ++v) {
    nodes.push_back(
        std::make_unique<ByzNode>(v, cfg, dir, everyone_in_pool(), views));
    members.push_back(nodes.back().get());
  }
  std::vector<sim::Message> all;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    all.push_back(tagged(Kind::kIdReport, v, cfg.ids[v]));
  }
  const std::vector<sim::Message> missing_250(all.begin(), all.begin() + 4);
  std::vector<sim::Message> missing_250_only = missing_250;
  missing_250_only.push_back(all[5]);
  const auto sent = run_committee(
      cfg, members, {all, all, missing_250_only, missing_250});
  const Sends ranks = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}};
  for (NodeIndex v = 0; v < 3; ++v) {
    EXPECT_EQ(sent[v], ranks) << "member " << v;
    EXPECT_EQ(members[v]->segments_dirty(), 0u) << "member " << v;
  }
  EXPECT_EQ(sent[3], (Sends{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
  EXPECT_EQ(members[3]->segments_dirty(), 1u);
  EXPECT_GT(members[3]->segments_split(), 0u);
}

TEST(ByzNodeUnit, FullExchangeAblationMergesByWitnessCount) {
  const auto cfg = fixed_config();
  const Directory dir(cfg);
  ByzParams params = everyone_in_pool();
  params.use_fingerprints = false;
  consensus::ViewInterner views;
  ByzNode node(0, cfg, dir, params, views);
  sim::Outbox out(0, cfg.n);
  node.send(1, out);
  std::vector<sim::Message> elects;
  for (NodeIndex v = 0; v < 4; ++v) {
    elects.push_back(tagged(Kind::kElect, v, cfg.ids[v]));
  }
  node.receive(1, Slots(elects));  // view of 4 members, t = 1
  // Round 2: id reports.
  std::vector<sim::Message> reports;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    reports.push_back(tagged(Kind::kIdReport, v, cfg.ids[v]));
  }
  node.receive(2, Slots(reports));
  // Round 3 send: must broadcast the identity vector blob to the view.
  sim::Outbox vec_out(0, cfg.n);
  node.send(3, vec_out);
  ASSERT_EQ(vec_out.size(), 4u);
  for (const auto& [dest, msg] : vec_out.entries()) {
    EXPECT_EQ(msg.kind, raw(Kind::kVector));
    ASSERT_TRUE(msg.blob);
    EXPECT_EQ(msg.blob->size(), cfg.n);
  }
}

}  // namespace
}  // namespace renaming::byzantine
