// Proof that the invariant layer is alive in the default build.
//
// The repo's default build type is RelWithDebInfo, where NDEBUG erases
// assert(); these death tests demonstrate that RENAMING_CHECK still fires
// there — a violated engine invariant aborts instead of silently corrupting
// the statistics the paper's theorems are checked against.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/check.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "sim/node.h"
#include "test_support.h"

namespace renaming::sim {
namespace {

using test_support::raw_wire_bits;

constexpr MsgKind kPing = 3;

class QuietNode : public Node {
 public:
  void send(Round, Outbox&) override {}
  void receive(Round, InboxView) override {}
  bool done() const override { return true; }
};

std::vector<std::unique_ptr<Node>> quiet_system(NodeIndex n) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) nodes.push_back(std::make_unique<QuietNode>());
  return nodes;
}

TEST(CheckInvariantsDeathTest, EngineRejectsEmptySystems) {
  EXPECT_DEATH(Engine(std::vector<std::unique_ptr<Node>>{}),
               "at least one node");
}

TEST(CheckInvariantsDeathTest, MarkByzantineOutOfRangeAborts) {
  Engine engine(quiet_system(3));
  EXPECT_DEATH(engine.mark_byzantine(3), "out of range");
}

// A node that bypasses Outbox::send and plants a raw entry with a forged
// transport origin. Outbox::entries() exists for the engine and the crash
// adversary; a protocol (or a future refactor) writing through it would
// sidestep the origin stamping that Theorem 1.3's authentication relies
// on. The engine's delivery-phase invariant must catch it.
class TamperingNode final : public QuietNode {
 public:
  void send(Round, Outbox& out) override {
    Message m = make_message(kPing, raw_wire_bits(8), std::uint64_t{0});
    m.sender = 999;  // forged true-origin field, not just claimed_sender
    m.claimed_sender = 999;
    out.entries().emplace_back(0, m);
  }
  bool done() const override { return false; }
};

TEST(CheckInvariantsDeathTest, ForgedTrueOriginAbortsDelivery) {
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<TamperingNode>());
  nodes.push_back(std::make_unique<QuietNode>());
  Engine engine(std::move(nodes));
  EXPECT_DEATH(engine.run(1), "engine stamps the true origin");
}

// Same bypass, zero declared wire size: bit-complexity accounting would
// silently undercount, so the engine must refuse to deliver it.
class FreeRiderNode final : public QuietNode {
 public:
  void send(Round, Outbox& out) override {
    Message m;
    m.kind = kPing;
    m.bits = raw_wire_bits(0);
    m.sender = 0;
    m.claimed_sender = 0;
    out.entries().emplace_back(1, m);
  }
  bool done() const override { return false; }
};

TEST(CheckInvariantsDeathTest, UndeclaredWireSizeAbortsDelivery) {
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<FreeRiderNode>());
  nodes.push_back(std::make_unique<QuietNode>());
  Engine engine(std::move(nodes));
  EXPECT_DEATH(engine.run(1), "wire size");
}

TEST(CheckInvariantsDeathTest, OutboxRejectsOutOfRangeDestination) {
  Outbox out(0, 2);
  EXPECT_DEATH(out.send(2, make_message(kPing, raw_wire_bits(8))),
               "outside the system");
}

TEST(CheckInvariantsDeathTest, AdversaryCrashingUnknownNodeAborts) {
  class RogueAdversary final : public CrashAdversary {
   public:
    std::vector<CrashOrder> decide(const AdversaryView&) override {
      CrashOrder o;
      o.victim = 17;  // outside a 2-node system
      return {o};
    }
    std::uint64_t budget() const override { return 1; }
  };
  class BusyNode final : public QuietNode {
   public:
    bool done() const override { return false; }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<BusyNode>());
  nodes.push_back(std::make_unique<BusyNode>());
  Engine engine(std::move(nodes), std::make_unique<RogueAdversary>());
  EXPECT_DEATH(engine.run(1), "outside the system");
}

// Node 0 queues one unicast per round; the adversary crashes it in round 1
// with a fixed keep list. A crash may only omit messages, so a keep list
// that names one message twice, or a message that was never queued, must
// abort instead of inventing a delivery.
class KeepListAdversary final : public CrashAdversary {
 public:
  explicit KeepListAdversary(std::vector<std::uint32_t> keep)
      : keep_(std::move(keep)) {}
  std::vector<CrashOrder> decide(const AdversaryView&) override {
    CrashOrder o;
    o.victim = 0;
    o.keep = keep_;
    return {o};
  }
  std::uint64_t budget() const override { return 1; }

 private:
  std::vector<std::uint32_t> keep_;
};

class UnicastNode final : public QuietNode {
 public:
  void send(Round, Outbox& out) override {
    out.send(1, make_message(kPing, raw_wire_bits(8), std::uint64_t{7}));
  }
  bool done() const override { return false; }
};

Engine crash_unicast_system(std::vector<std::uint32_t> keep) {
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<UnicastNode>());
  nodes.push_back(std::make_unique<QuietNode>());
  return Engine(std::move(nodes),
                std::make_unique<KeepListAdversary>(std::move(keep)));
}

TEST(CheckInvariantsDeathTest, CrashOrderKeepingAMessageTwiceAborts) {
  Engine engine = crash_unicast_system({0, 0});
  EXPECT_DEATH(engine.run(1), "keeps a message twice");
}

TEST(CheckInvariantsDeathTest, CrashOrderKeepingAnUnqueuedMessageAborts) {
  Engine engine = crash_unicast_system({1});
  EXPECT_DEATH(engine.run(1), "never queued");
}

TEST(CheckInvariantsDeathTest, BitVecBoundsAreCheckedInEveryBuild) {
  BitVec bits(64);
  EXPECT_DEATH(bits.test(64), "out of range");
  EXPECT_DEATH(bits.set(64), "out of range");
  EXPECT_DEATH(bits.count_range(8, 64), "out of range");
}

TEST(CheckInvariants, PassingChecksAreSideEffectFree) {
  // RENAMING_CHECK must evaluate its condition exactly once when it holds.
  int evaluations = 0;
  auto holds = [&] {
    ++evaluations;
    return true;
  };
  RENAMING_CHECK(holds(), "never fires");
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace renaming::sim
