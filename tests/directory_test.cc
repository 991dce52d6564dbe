// Unit tests for the Directory (certificate-verification + addressing
// stand-in) and the Byzantine strategy plumbing.
#include <gtest/gtest.h>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "core/directory.h"
#include "test_support.h"

namespace renaming {
namespace {

using sim::wire::Kind;
using sim::wire::raw;
using test_support::raw_wire_bits;
using test_support::Slots;

SystemConfig tiny() {
  SystemConfig cfg;
  cfg.n = 4;
  cfg.namespace_size = 100;
  cfg.ids = {10, 20, 30, 40};
  cfg.seed = 5;
  return cfg;
}

TEST(Directory, VerifyAcceptsOnlyTrueOwner) {
  const auto cfg = tiny();
  const Directory dir(cfg);
  EXPECT_TRUE(dir.verify(0, 10));
  EXPECT_TRUE(dir.verify(3, 40));
  EXPECT_FALSE(dir.verify(0, 20));   // claims someone else's identity
  EXPECT_FALSE(dir.verify(1, 99));   // claims a phantom identity
  EXPECT_FALSE(dir.verify(7, 10));   // sender index out of range
}

TEST(Directory, LinkOfRoutesByIdentity) {
  const auto cfg = tiny();
  const Directory dir(cfg);
  EXPECT_EQ(dir.link_of(10), 0u);
  EXPECT_EQ(dir.link_of(40), 3u);
  EXPECT_EQ(dir.link_of(55), kNoNode);  // nobody owns it: message vanishes
}

TEST(Strategies, SplitReporterDropsOddIdReports) {
  const auto cfg = tiny();
  const Directory dir(cfg);
  byzantine::ByzParams params;
  params.pool_constant = 1e9;  // everyone in pool
  params.shared_seed = 2;
  auto node = byzantine::SplitReporter::make(0, cfg, dir, params);

  // Round 1: elect; feed back everyone's announcements to form the view.
  sim::Outbox out1(0, cfg.n);
  node->send(1, out1);
  std::vector<sim::Message> elects;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    auto m = sim::make_message(
        raw(Kind::kElect), raw_wire_bits(16), cfg.ids[v]);
    m.sender = v;
    m.claimed_sender = v;
    elects.push_back(m);
  }
  node->receive(1, Slots(elects));

  // Round 2: the honest node would report to all 4 members; the split
  // reporter starves every second one.
  sim::Outbox out2(0, cfg.n);
  node->send(2, out2);
  EXPECT_EQ(out2.size(), 2u);
}

TEST(Strategies, SilentNodeSendsNothingAndIsAlwaysDone) {
  byzantine::SilentNode node;
  sim::Outbox out(0, 4);
  node.send(1, out);
  node.receive(1, {});
  EXPECT_EQ(out.size(), 0u);
  EXPECT_TRUE(node.done());
}

}  // namespace
}  // namespace renaming
