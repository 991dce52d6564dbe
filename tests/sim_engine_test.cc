// Tests for the synchronous engine: round semantics, delivery, crash
// semantics (including mid-send partial delivery), authentication, and
// statistics accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/adversary.h"
#include "sim/auth.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "sim/node.h"
#include "test_support.h"

namespace renaming::sim {
namespace {

using test_support::copies;
using test_support::raw_wire_bits;

constexpr MsgKind kPing = 7;

/// Broadcasts one ping per round and records everything it receives.
class PingNode : public Node {
 public:
  PingNode(NodeIndex self, Round rounds) : self_(self), rounds_(rounds) {}

  void send(Round, Outbox& out) override {
    out.broadcast(make_message(kPing, raw_wire_bits(32),
                               static_cast<std::uint64_t>(self_)));
  }

  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) senders_.push_back(m.sender);
  }

  bool done() const override { return executed_ >= rounds_; }

  std::vector<NodeIndex> senders_;
  Round executed_ = 0;

 protected:
  NodeIndex self_;
  Round rounds_;
};

std::vector<std::unique_ptr<Node>> ping_system(NodeIndex n, Round rounds) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<PingNode>(v, rounds));
  }
  return nodes;
}

TEST(Engine, AllToAllDeliveryAndCounts) {
  const NodeIndex n = 5;
  Engine engine(ping_system(n, 2));
  const RunStats stats = engine.run(10);
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.total_messages, 2ull * n * n);
  EXPECT_EQ(stats.total_bits, 2ull * n * n * 32);
  EXPECT_EQ(stats.max_message_bits, 32u);
  for (NodeIndex v = 0; v < n; ++v) {
    const auto& node = dynamic_cast<const PingNode&>(engine.node(v));
    // 2 rounds x n senders, including self-delivery.
    EXPECT_EQ(node.senders_.size(), 2u * n);
  }
}

TEST(Engine, StopsWhenAllDone) {
  Engine engine(ping_system(3, 1));
  const RunStats stats = engine.run(100);
  EXPECT_EQ(stats.rounds, 1u);
}

TEST(Engine, RespectsMaxRounds) {
  Engine engine(ping_system(3, 1000));
  const RunStats stats = engine.run(4);
  EXPECT_EQ(stats.rounds, 4u);
}

/// Adversary that crashes one fixed victim in a fixed round keeping a
/// prefix of its outbox.
class ScriptedCrash final : public CrashAdversary {
 public:
  ScriptedCrash(NodeIndex victim, Round when, std::uint32_t keep_prefix)
      : victim_(victim), when_(when), keep_prefix_(keep_prefix) {}

  std::vector<CrashOrder> decide(const AdversaryView& view) override {
    if (view.round != when_) return {};
    CrashOrder o;
    o.victim = victim_;
    for (std::uint32_t i = 0; i < keep_prefix_; ++i) o.keep.push_back(i);
    return {o};
  }

  std::uint64_t budget() const override { return 1; }

 private:
  NodeIndex victim_;
  Round when_;
  std::uint32_t keep_prefix_;
};

TEST(Engine, MidSendCrashDeliversOnlyKeptSubset) {
  const NodeIndex n = 4;
  // Victim 0 crashes in round 1 after "sending" only 2 of its 4 messages.
  Engine engine(ping_system(n, 2),
                std::make_unique<ScriptedCrash>(0, 1, 2));
  const RunStats stats = engine.run(10);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_FALSE(engine.alive(0));
  // Round 1: victim sent 2, others sent 4 each => 2 + 3*4 = 14.
  // Round 2: 3 alive senders x 4 links = 12.
  EXPECT_EQ(stats.per_round[0].messages, 14u);
  EXPECT_EQ(stats.per_round[1].messages, 12u);
  // Outbox order is deterministic (dest 0,1,2,3): nodes 0 and 1 received
  // the victim's round-1 ping, nodes 2 and 3 did not.
  int got = 0;
  for (NodeIndex v = 1; v < n; ++v) {
    const auto& node = dynamic_cast<const PingNode&>(engine.node(v));
    for (Round r = 0; r < 1; ++r) {
      // count sender-0 pings across both rounds
    }
    for (NodeIndex s : node.senders_) got += (s == 0);
  }
  EXPECT_EQ(got, 1);  // only node 1 (dest index 1) saw the kept prefix
}

TEST(Engine, CrashedNodeNeverActsAgain) {
  Engine engine(ping_system(3, 5), std::make_unique<ScriptedCrash>(1, 2, 0));
  engine.run(5);
  const auto& victim = dynamic_cast<const PingNode&>(engine.node(1));
  EXPECT_EQ(victim.executed_, 1u);  // last receive was round 1
  // Remaining rounds have only 2 senders.
  EXPECT_EQ(engine.stats().per_round[4].messages, 2u * 3u);
}

/// A Byzantine node that tries to forge its origin.
class SpooferNode final : public PingNode {
 public:
  using PingNode::PingNode;
  void send(Round, Outbox& out) override {
    Message m = make_message(kPing, raw_wire_bits(32),
                             static_cast<std::uint64_t>(self_));
    m.claimed_sender = (self_ + 1) % 3;  // masquerade as a neighbour
    for (NodeIndex d = 0; d < 3; ++d) out.send(d, m);
  }
};

TEST(Engine, AuthenticationDropsSpoofedMessages) {
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<PingNode>(0, 1));
  nodes.push_back(std::make_unique<SpooferNode>(1, 1));
  nodes.push_back(std::make_unique<PingNode>(2, 1));
  Engine engine(std::move(nodes));
  engine.mark_byzantine(1);
  const RunStats stats = engine.run(3);
  EXPECT_EQ(stats.spoofs_rejected, 3u);
  EXPECT_EQ(stats.byzantine, 1u);
  // Honest nodes saw only the two honest senders.
  for (NodeIndex v : {NodeIndex{0}, NodeIndex{2}}) {
    const auto& node = dynamic_cast<const PingNode&>(engine.node(v));
    for (NodeIndex s : node.senders_) EXPECT_NE(s, 1u);
  }
}

TEST(Engine, RandomCrashAdversaryHonoursBudget) {
  Engine engine(ping_system(50, 20),
                std::make_unique<RandomCrashAdversary>(7, 0.3, 123));
  const RunStats stats = engine.run(20);
  EXPECT_LE(stats.crashes, 7u);
  EXPECT_GT(stats.crashes, 0u);
}

TEST(Authenticator, TagRoundTripAndTamperDetection) {
  Authenticator auth(0xDEADBEEF);
  Message m = make_message(kPing, raw_wire_bits(32), 1ULL, 2ULL, 3ULL);
  m.claimed_sender = 4;
  const std::uint64_t t = auth.tag(m);
  EXPECT_TRUE(auth.verify(m, t));
  Message tampered = m;
  tampered.w[1] = 99;
  EXPECT_FALSE(auth.verify(tampered, t));
  Message respoofed = m;
  respoofed.claimed_sender = 5;
  EXPECT_FALSE(auth.verify(respoofed, t));
  Authenticator other_key(0xDEADBEF0);
  EXPECT_FALSE(other_key.verify(m, t));
}


TEST(Engine, PerRoundStatsSumToTotals) {
  Engine engine(ping_system(13, 7),
                std::make_unique<RandomCrashAdversary>(5, 0.2, 42));
  const RunStats stats = engine.run(7);
  std::uint64_t messages = 0, bits = 0, crashes = 0;
  for (const RoundStats& r : stats.per_round) {
    messages += r.messages;
    bits += r.bits;
    crashes += r.crashes;
  }
  EXPECT_EQ(messages, stats.total_messages);
  EXPECT_EQ(bits, stats.total_bits);
  EXPECT_EQ(crashes, stats.crashes);
  EXPECT_EQ(stats.per_round.size(), stats.rounds);
}

TEST(Engine, ByzantineNodesNeverBlockTermination) {
  // A Byzantine node that is never "done" must not keep the engine alive
  // once every correct node has finished.
  class NeverDone final : public Node {
   public:
    void send(Round, Outbox&) override {}
    void receive(Round, InboxView) override {}
    bool done() const override { return false; }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<PingNode>(0, 2));
  nodes.push_back(std::make_unique<NeverDone>());
  Engine engine(std::move(nodes));
  engine.mark_byzantine(1);
  const RunStats stats = engine.run(1000);
  EXPECT_EQ(stats.rounds, 2u);
}

TEST(Engine, CrashOrderKeepIndicesMayBeUnsorted) {
  // The adversary may hand back keep-indices in any order; delivery must
  // honour the set regardless.
  class UnsortedKeep final : public CrashAdversary {
   public:
    std::vector<CrashOrder> decide(const AdversaryView& view) override {
      if (view.round != 1) return {};
      CrashOrder o;
      o.victim = 0;
      o.keep = {2, 0};  // deliberately unsorted
      return {o};
    }
    std::uint64_t budget() const override { return 1; }
  };
  Engine engine(ping_system(3, 2), std::make_unique<UnsortedKeep>());
  const RunStats stats = engine.run(3);
  EXPECT_EQ(stats.per_round[0].messages, 2u + 3u + 3u);
}

TEST(OutboxBroadcastIncludesSelf, Basic) {
  Outbox out(2, 4);
  out.broadcast(make_message(kPing, raw_wire_bits(8), 0ULL));
  // Compressed: one stored entry, four logical messages.
  ASSERT_EQ(out.entries().size(), 1u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.entries().front().first, Outbox::kBroadcast);
  const auto all = copies(out);
  ASSERT_EQ(all.size(), 4u);
  bool self_seen = false;
  for (const auto& [dest, msg] : all) self_seen |= (dest == 2);
  EXPECT_TRUE(self_seen);
}

}  // namespace
}  // namespace renaming::sim
