// Tests for the engine trace sinks: the counting sink must agree exactly
// with the engine's own statistics (an independent double-entry check of
// the accounting), and the JSONL sink must emit well-formed records.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "json_check.h"
#include "sim/engine.h"
#include "sim/wire_schema.h"
#include "sim/trace.h"
#include "test_support.h"

namespace renaming {
namespace {

using sim::wire::Kind;
using sim::wire::raw;
using test_support::raw_wire_bits;

TEST(CountingTrace, AgreesWithEngineStats) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 4);
  crash::CrashParams params;
  params.election_constant = 3.0;
  sim::CountingTrace trace;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      16, crash::CommitteeHunter::Mode::kMidResponse, 3, 0.5);
  const auto result = crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.trace = &trace});
  ASSERT_TRUE(result.report.ok());
  EXPECT_EQ(trace.total(), result.stats.total_messages);
  EXPECT_EQ(trace.crashes(), result.stats.crashes);
  std::uint64_t sum = 0, bits = 0;
  for (const auto& [kind, count] : trace.by_kind()) {
    sum += count;
    bits += trace.bits(kind);
  }
  EXPECT_EQ(sum, result.stats.total_messages);
  EXPECT_EQ(bits, result.stats.total_bits);
}

TEST(CountingTrace, BreaksDownCrashProtocolTraffic) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 5);
  crash::CrashParams params;
  params.election_constant = 2.0;
  sim::CountingTrace trace;
  const auto result =
      crash::run_crash_renaming(cfg, params, nullptr, {.trace = &trace});
  ASSERT_TRUE(result.report.ok());
  // All three tags present; statuses and responses pair up one-to-one in a
  // failure-free run (every status gets exactly one response).
  EXPECT_GT(trace.sent(raw(Kind::kCommittee)), 0u);
  EXPECT_GT(trace.sent(raw(Kind::kStatus)), 0u);
  EXPECT_EQ(trace.sent(raw(Kind::kStatus)),
            trace.sent(raw(Kind::kResponse)));
  EXPECT_EQ(trace.undelivered(raw(Kind::kStatus)), 0u);
}

TEST(CountingTrace, SeesByzantineProtocolKinds) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 6);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 9;
  sim::CountingTrace trace;
  const auto result = byzantine::run_byz_renaming(
      cfg, params, {1, 17}, &byzantine::SplitReporter::make, 0,
      {.trace = &trace});
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_GT(trace.sent(raw(Kind::kElect)), 0u);
  EXPECT_GT(trace.sent(raw(Kind::kIdReport)), 0u);
  EXPECT_GT(trace.sent(raw(Kind::kValidator)), 0u);
  EXPECT_GT(trace.sent(raw(Kind::kConsensus)), 0u);
  EXPECT_GT(trace.sent(raw(Kind::kNew)), 0u);
  // Consensus traffic dominates (the phase-king cost of the loop).
  EXPECT_GT(trace.sent(raw(Kind::kConsensus)),
            trace.sent(raw(Kind::kElect)));
}

// --- per-logical-destination contract --------------------------------------
//
// The TraceSink contract is one on_message per *logical* destination:
// a kBroadcast sentinel entry fires n times, a kMulticast entry once per
// list element, a unicast once — with delivered=false exactly for copies
// addressed to crashed nodes or carrying a forged origin. These tests pin
// it directly against the compressed outbox representations (the protocol
// runs above only exercise whatever mix they happen to produce).

constexpr sim::MsgKind kBcast = 60;
constexpr sim::MsgKind kMcast = 61;
constexpr sim::MsgKind kUni = 62;

struct SinkEvent {
  Round round;
  NodeIndex from;
  NodeIndex to;
  sim::MsgKind kind;
  bool delivered;
  friend bool operator==(const SinkEvent&, const SinkEvent&) = default;
};

class RecordingSink final : public sim::TraceSink {
 public:
  void on_message(Round round, const sim::Message& m, NodeIndex dest,
                  bool delivered) override {
    events.push_back({round, m.sender, dest, m.kind, delivered});
  }
  std::uint64_t count(sim::MsgKind kind, bool delivered) const {
    std::uint64_t c = 0;
    for (const SinkEvent& e : events) {
      if (e.kind == kind && e.delivered == delivered) ++c;
    }
    return c;
  }
  std::vector<SinkEvent> events;
};

/// Node 0 broadcasts, node 1 multicasts to {0, 2, 4}, node 2 unicasts to 0;
/// node 3 broadcasts with a forged origin when marked as a spoofer.
class FanoutNode final : public sim::Node {
 public:
  FanoutNode(NodeIndex self, NodeIndex n, Round rounds, bool spoof)
      : self_(self), n_(n), rounds_(rounds), spoof_(spoof) {}

  void send(Round, sim::Outbox& out) override {
    if (self_ == 0) {
      out.broadcast(sim::make_message(kBcast, raw_wire_bits(32),
                                      std::uint64_t{1}));
    } else if (self_ == 1) {
      static constexpr NodeIndex dests[] = {0, 2, 4};
      out.multicast(dests, sim::make_message(kMcast, raw_wire_bits(24),
                                             std::uint64_t{2}));
    } else if (self_ == 2) {
      out.send(0, sim::make_message(kUni, raw_wire_bits(16), std::uint64_t{3}));
    } else if (self_ == 3 && spoof_) {
      sim::Message m = sim::make_message(kBcast, raw_wire_bits(32),
                                         std::uint64_t{4});
      m.claimed_sender = (self_ + 1) % n_;
      out.broadcast(m);
    }
  }

  void receive(Round round, sim::InboxView) override { executed_ = round; }
  bool done() const override { return executed_ >= rounds_; }

 private:
  NodeIndex self_;
  NodeIndex n_;
  Round rounds_;
  bool spoof_;
  Round executed_ = 0;
};

/// Crashes one fixed victim in round 1, after its sends all escape.
class SingleVictimAdversary final : public sim::CrashAdversary {
 public:
  explicit SingleVictimAdversary(NodeIndex victim) : victim_(victim) {}
  std::vector<sim::CrashOrder> decide(const sim::AdversaryView& view) override {
    if (view.round != 1) return {};
    sim::CrashOrder o;
    o.victim = victim_;
    const std::size_t total = view.outbox(victim_).size();
    for (std::uint32_t i = 0; i < total; ++i) o.keep.push_back(i);
    return {o};
  }
  std::uint64_t budget() const override { return 1; }

 private:
  NodeIndex victim_;
};

TEST(TraceContract, OneEventPerLogicalDestination) {
  const NodeIndex n = 6;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<FanoutNode>(v, n, 1, false));
  }
  RecordingSink sink;
  sim::Engine engine(std::move(nodes), nullptr, {.trace = &sink});
  const auto stats = engine.run(1);

  // Broadcast sentinel -> n events; multicast sentinel -> |dests| events;
  // unicast -> 1. All delivered in a failure-free run.
  EXPECT_EQ(sink.count(kBcast, true), n);
  EXPECT_EQ(sink.count(kMcast, true), 3u);
  EXPECT_EQ(sink.count(kUni, true), 1u);
  EXPECT_EQ(sink.count(kBcast, false) + sink.count(kMcast, false) +
                sink.count(kUni, false),
            0u);
  EXPECT_EQ(sink.events.size(), stats.total_messages);

  // Multicast events preserve list order and name the true sender.
  const std::vector<SinkEvent> mcast = [&] {
    std::vector<SinkEvent> out;
    for (const SinkEvent& e : sink.events) {
      if (e.kind == kMcast) out.push_back(e);
    }
    return out;
  }();
  ASSERT_EQ(mcast.size(), 3u);
  EXPECT_EQ(mcast[0], (SinkEvent{1, 1, 0, kMcast, true}));
  EXPECT_EQ(mcast[1], (SinkEvent{1, 1, 2, kMcast, true}));
  EXPECT_EQ(mcast[2], (SinkEvent{1, 1, 4, kMcast, true}));
}

TEST(TraceContract, CopiesToCrashedNodesFireUndelivered) {
  const NodeIndex n = 6;
  const NodeIndex victim = 4;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<FanoutNode>(v, n, 2, false));
  }
  RecordingSink sink;
  sim::Engine engine(std::move(nodes),
                     std::make_unique<SingleVictimAdversary>(victim),
                     {.trace = &sink});
  engine.run(2);

  // The adversary strikes after round 1's sends but before its delivery
  // phase, so every copy addressed to the victim — from the crash round on
  // — fires with delivered=false; everything else is delivered.
  for (const SinkEvent& e : sink.events) {
    const bool to_dead_node = e.to == victim;
    EXPECT_EQ(e.delivered, !to_dead_node)
        << "round " << e.round << " " << e.from << "->" << e.to;
  }
  EXPECT_EQ(sink.count(kBcast, false), 2u);  // node 0's copy to 4, both rounds
  EXPECT_EQ(sink.count(kMcast, false), 2u);  // node 1's copy to 4, both rounds
}

TEST(TraceContract, SpoofedBroadcastFiresUndeliveredPerCopy) {
  const NodeIndex n = 6;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<FanoutNode>(v, n, 1, v == 3));
  }
  RecordingSink sink;
  sim::Engine engine(std::move(nodes), nullptr, {.trace = &sink});
  engine.mark_byzantine(3);
  const auto stats = engine.run(1);

  // The forged broadcast is charged and traced once per copy, none
  // delivered; honest traffic is untouched.
  EXPECT_EQ(stats.spoofs_rejected, n);
  EXPECT_EQ(sink.count(kBcast, false), n);
  EXPECT_EQ(sink.count(kBcast, true), n);  // node 0's honest broadcast
  for (const SinkEvent& e : sink.events) {
    if (!e.delivered) {
      EXPECT_EQ(e.from, 3u);
    }
  }
}

/// Broadcast-only node: the shape that qualifies for the engine's
/// shared-inbox fast path (which only engages when no sink is attached).
class BroadcastOnlyNode final : public sim::Node {
 public:
  BroadcastOnlyNode(NodeIndex self, Round rounds)
      : self_(self), rounds_(rounds) {}
  void send(Round round, sim::Outbox& out) override {
    out.broadcast(sim::make_message(kBcast, raw_wire_bits(32),
                                    std::uint64_t{self_}, round));
  }
  void receive(Round round, sim::InboxView inbox) override {
    executed_ = round;
    for (const sim::Message& m : inbox) sum_ += m.w[0];
  }
  bool done() const override { return executed_ >= rounds_; }
  std::uint64_t sum() const { return sum_; }

 private:
  NodeIndex self_;
  Round rounds_;
  Round executed_ = 0;
  std::uint64_t sum_ = 0;
};

TEST(TraceContract, TracedRunMatchesSharedInboxFastPathStats) {
  // With no sink the broadcast-only round takes the shared-inbox fast
  // path; a sink forces per-receiver delivery (one on_message per logical
  // destination). Stats and every node's receive-side state must agree —
  // tracing only observes.
  const NodeIndex n = 16;
  const Round rounds = 3;
  auto build = [&] {
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) {
      nodes.push_back(std::make_unique<BroadcastOnlyNode>(v, rounds));
    }
    return nodes;
  };
  sim::Engine fast(build());
  const auto fast_stats = fast.run(rounds);

  RecordingSink sink;
  sim::Engine traced_engine(build(), nullptr, {.trace = &sink});
  const auto traced_stats = traced_engine.run(rounds);

  EXPECT_EQ(fast_stats, traced_stats);
  EXPECT_EQ(sink.events.size(),
            static_cast<std::size_t>(n) * n * rounds);  // n bcasts x n dests
  for (NodeIndex v = 0; v < n; ++v) {
    EXPECT_EQ(dynamic_cast<const BroadcastOnlyNode&>(fast.node(v)).sum(),
              dynamic_cast<const BroadcastOnlyNode&>(
                  traced_engine.node(v)).sum());
  }
}

TEST(MessageNames, CanonicalTableMatchesProtocolTags) {
  // The names are the wire protocol's: traces, journals and the doctor
  // print them, so a renamed row must fail here.
  using sim::message_name;
  EXPECT_STREQ(message_name(raw(Kind::kCommittee)), "COMMITTEE");
  EXPECT_STREQ(message_name(raw(Kind::kStatus)), "STATUS");
  EXPECT_STREQ(message_name(raw(Kind::kResponse)), "RESPONSE");
  EXPECT_STREQ(message_name(raw(Kind::kElect)), "ELECT");
  EXPECT_STREQ(message_name(raw(Kind::kIdReport)), "ID_REPORT");
  EXPECT_STREQ(message_name(raw(Kind::kValidator)), "VALIDATOR");
  EXPECT_STREQ(message_name(raw(Kind::kConsensus)), "CONSENSUS");
  EXPECT_STREQ(message_name(raw(Kind::kDiff)), "DIFF");
  EXPECT_STREQ(message_name(raw(Kind::kNew)), "NEW");
  EXPECT_STREQ(message_name(raw(Kind::kVector)), "VECTOR");
  EXPECT_STREQ(message_name(999), "?");
}

TEST(JsonlTrace, EmitsWellFormedLines) {
  const NodeIndex n = 8;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 7);
  crash::CrashParams params;  // full committee
  std::ostringstream out;
  sim::JsonlTrace trace(out, /*message_sample=*/10);
  auto adversary = std::make_unique<sim::RandomCrashAdversary>(2, 0.2, 8);
  crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.trace = &trace});
  const std::string text = out.str();
  ASSERT_TRUE(json_check::IsJsonLines(text));
  std::istringstream lines(text);
  std::string line;
  int rounds = 0, round_ends = 0, messages = 0;
  while (std::getline(lines, line)) {
    ASSERT_NE(line.find("\"event\":"), std::string::npos) << line;
    rounds += line.find("\"event\":\"round\"") != std::string::npos;
    round_ends += line.find("\"event\":\"round_end\"") != std::string::npos;
    if (line.find("\"event\":\"message\"") != std::string::npos) {
      ++messages;
      // Every message event names its kind canonically (sim/wire_schema.h).
      EXPECT_NE(line.find("\"kind_name\":\""), std::string::npos) << line;
    }
  }
  EXPECT_GT(rounds, 0);
  EXPECT_EQ(rounds, round_ends);
  EXPECT_GT(messages, 0);
}

TEST(JsonlTrace, SamplingReducesMessageEvents) {
  const NodeIndex n = 16;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 8);
  crash::CrashParams params;
  auto count_messages = [&](std::uint64_t sample) {
    std::ostringstream out;
    sim::JsonlTrace trace(out, sample);
    crash::run_crash_renaming(cfg, params, nullptr, {.trace = &trace});
    std::istringstream lines(out.str());
    std::string line;
    int messages = 0;
    while (std::getline(lines, line)) {
      messages += line.find("\"event\":\"message\"") != std::string::npos;
    }
    return messages;
  };
  const int all = count_messages(1);
  const int sampled = count_messages(100);
  EXPECT_GT(all, 0);
  EXPECT_LT(sampled, all / 50);
}

// An uncapped-equivalent CappedTrace (cap never hit) forwards every event:
// the bytes stay pinnable and identical to the bare sink.
TEST(CappedTrace, UntouchedCapKeepsTraceBytesIdentical) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 7);
  crash::CrashParams params;
  params.election_constant = 3.0;
  const auto run_with_cap = [&](bool capped) {
    std::ostringstream out;
    sim::JsonlTrace inner(out);
    sim::CappedTrace cap(inner, 1ull << 40);
    sim::TraceSink* sink = capped ? static_cast<sim::TraceSink*>(&cap)
                                  : static_cast<sim::TraceSink*>(&inner);
    const auto r = crash::run_crash_renaming(
        cfg, params, nullptr, {.trace = sink});
    EXPECT_TRUE(r.report.ok());
    if (capped) {
      EXPECT_EQ(cap.dropped(), 0u);
      cap.assert_complete_for_pinning();  // must not abort: nothing dropped
    }
    return out.str();
  };
  EXPECT_EQ(run_with_cap(false), run_with_cap(true));
}

#if defined(GTEST_HAS_DEATH_TEST)

// The memory-bounded trace is NOT byte-comparable once it drops events;
// feeding it to a golden-pin comparison must abort, not silently pass.
TEST(CappedTraceDeathTest, RefusesPinningAfterDrops) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::CountingTrace inner;
  sim::CappedTrace capped(inner, 1);
  const sim::Message m = sim::make_message(2, raw_wire_bits(42), 1, 2, 3);
  capped.on_round_begin(1);
  capped.on_message(1, m, 0, true);  // forwarded (1/1)
  capped.on_message(1, m, 1, true);  // dropped
  EXPECT_GT(capped.dropped(), 0u);
  EXPECT_DEATH(capped.assert_complete_for_pinning(), "not pinnable");
}

#endif  // defined(GTEST_HAS_DEATH_TEST)

}  // namespace
}  // namespace renaming
