// Seed-engine equivalence tests for the broadcast fast path and the reused
// round buffers (docs/PERFORMANCE.md).
//
// The pre-optimization engine implemented broadcast() as n individual
// send() calls and rebuilt every outbox/inbox each round. The optimized
// engine must be observationally identical: same JSONL trace bytes, same
// RunStats, same per-node inbox order. Since a loop of send() calls IS the
// seed representation (the engine still takes that path for unicasts),
// every test here runs each scenario twice — once with compressed
// broadcast() entries, once with the expanded send() fan-out — and demands
// byte-identical traces and identical stats and receive logs, across
// crash, Byzantine and spoofing scenarios, including mid-send crashes
// whose keep-indices cut a broadcast in half.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/inbox.h"
#include "sim/message.h"
#include "sim/node.h"
#include "sim/trace.h"
#include "sim/wire_schema.h"
#include "test_support.h"

namespace renaming::sim {
namespace {

using test_support::copies;
using test_support::raw_wire_bits;
using wire::Kind;

constexpr MsgKind kWave = 11;
constexpr MsgKind kExtra = 12;

using ReceiveLog = std::vector<std::tuple<Round, NodeIndex, std::uint64_t>>;

/// Sends one all-nodes wave per round — either as a compressed broadcast or
/// as the n-send fan-out the seed engine used — plus unicast extras around
/// it so mixed outboxes keep their interleaved delivery order. Optionally
/// spoofs the wave's claimed origin.
class WaveNode : public Node {
 public:
  WaveNode(NodeIndex self, NodeIndex n, Round rounds, bool use_broadcast,
           bool spoof = false)
      : self_(self), n_(n), rounds_(rounds), use_broadcast_(use_broadcast),
        spoof_(spoof) {}

  void send(Round round, Outbox& out) override {
    if (self_ % 3 == 0) {
      out.send((self_ + 1) % n_,
               make_message(kExtra, raw_wire_bits(16),
                            static_cast<std::uint64_t>(round)));
    }
    Message wave = make_message(kWave, raw_wire_bits(32),
                                static_cast<std::uint64_t>(self_), round);
    if (spoof_) wave.claimed_sender = (self_ + 1) % n_;
    if (use_broadcast_) {
      out.broadcast(wave);
    } else {
      for (NodeIndex d = 0; d < n_; ++d) out.send(d, wave);
    }
    if (self_ % 4 == 0) {
      out.send((self_ + 2) % n_,
               make_message(kExtra, raw_wire_bits(24),
                            static_cast<std::uint64_t>(round)));
    }
  }

  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) log_.emplace_back(round, m.sender, m.w[0]);
  }

  bool done() const override { return executed_ >= rounds_; }

  const ReceiveLog& log() const { return log_; }

 protected:
  NodeIndex self_;
  NodeIndex n_;
  Round rounds_;
  bool use_broadcast_;
  bool spoof_;
  Round executed_ = 0;
  ReceiveLog log_;
};

struct Observed {
  std::string jsonl;
  RunStats stats;
  std::vector<ReceiveLog> logs;
};

Observed run_waves(bool use_broadcast, NodeIndex n, Round rounds,
                   std::unique_ptr<CrashAdversary> adversary,
                   const std::vector<NodeIndex>& spoofers = {}) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    const bool spoof =
        std::find(spoofers.begin(), spoofers.end(), v) != spoofers.end();
    nodes.push_back(
        std::make_unique<WaveNode>(v, n, rounds, use_broadcast, spoof));
  }
  std::ostringstream out;
  JsonlTrace trace(out);
  Engine engine(std::move(nodes), std::move(adversary), {.trace = &trace});
  for (NodeIndex v : spoofers) engine.mark_byzantine(v);
  Observed result;
  result.stats = engine.run(rounds + 5);
  result.jsonl = out.str();
  for (NodeIndex v = 0; v < n; ++v) {
    result.logs.push_back(dynamic_cast<const WaveNode&>(engine.node(v)).log());
  }
  return result;
}

void expect_equivalent(const Observed& fast, const Observed& seed) {
  EXPECT_EQ(fast.jsonl, seed.jsonl)
      << "broadcast fast path diverged from the per-recipient send() path";
  EXPECT_EQ(fast.stats, seed.stats);
  ASSERT_EQ(fast.logs.size(), seed.logs.size());
  for (std::size_t v = 0; v < fast.logs.size(); ++v) {
    EXPECT_EQ(fast.logs[v], seed.logs[v]) << "inbox order differs at node "
                                          << v;
  }
}

TEST(BroadcastFastPath, MatchesSendFanoutWithoutFailures) {
  const Observed fast = run_waves(true, 7, 3, nullptr);
  const Observed seed = run_waves(false, 7, 3, nullptr);
  ASSERT_FALSE(fast.jsonl.empty());
  expect_equivalent(fast, seed);
}

TEST(BroadcastFastPath, MatchesSendFanoutUnderRandomCrashes) {
  const Observed fast = run_waves(
      true, 9, 4, std::make_unique<RandomCrashAdversary>(4, 0.25, 77));
  const Observed seed = run_waves(
      false, 9, 4, std::make_unique<RandomCrashAdversary>(4, 0.25, 77));
  EXPECT_GT(fast.stats.crashes, 0u);
  expect_equivalent(fast, seed);
}

TEST(BroadcastFastPath, MatchesSendFanoutUnderChaosMidSendCrashes) {
  // ChaosCrashAdversary keeps an arbitrary *subset* of each victim's
  // logical outbox — the keep-indices cut straight through compressed
  // broadcast entries.
  const Observed fast = run_waves(
      true, 8, 4, std::make_unique<ChaosCrashAdversary>(5, 0.35, 13));
  const Observed seed = run_waves(
      false, 8, 4, std::make_unique<ChaosCrashAdversary>(5, 0.35, 13));
  EXPECT_GT(fast.stats.crashes, 0u);
  expect_equivalent(fast, seed);
}

TEST(BroadcastFastPath, MatchesSendFanoutWithSpoofedBroadcasts) {
  // A Byzantine node broadcasting with a forged claimed origin: all n
  // copies are charged and rejected, none delivered.
  const Observed fast = run_waves(true, 6, 3, nullptr, {2});
  const Observed seed = run_waves(false, 6, 3, nullptr, {2});
  EXPECT_GT(fast.stats.spoofs_rejected, 0u);
  EXPECT_EQ(fast.stats.spoofs_rejected, seed.stats.spoofs_rejected);
  expect_equivalent(fast, seed);
}

/// Crashes one victim in round 1 keeping an explicit keep list.
class ScriptedKeep final : public CrashAdversary {
 public:
  ScriptedKeep(NodeIndex victim, std::vector<std::uint32_t> keep)
      : victim_(victim), keep_(std::move(keep)) {}

  std::vector<CrashOrder> decide(const AdversaryView& view) override {
    if (view.round != 1) return {};
    CrashOrder o;
    o.victim = victim_;
    o.keep = keep_;
    return {o};
  }
  std::uint64_t budget() const override { return 1; }

 private:
  NodeIndex victim_;
  std::vector<std::uint32_t> keep_;
};

/// Pure broadcaster (no extras) used by the keep-index and shared-inbox
/// tests; can expand its broadcast into sends and/or spoof its origin.
class PureBroadcaster final : public Node {
 public:
  PureBroadcaster(NodeIndex self, Round rounds, NodeIndex n = 0,
                  bool use_broadcast = true, bool spoof = false)
      : self_(self), rounds_(rounds), n_(n), use_broadcast_(use_broadcast),
        spoof_(spoof) {}
  void send(Round, Outbox& out) override {
    Message m = make_message(kWave, raw_wire_bits(32),
                             static_cast<std::uint64_t>(self_));
    if (spoof_) m.claimed_sender = (self_ + 1) % n_;
    if (use_broadcast_) {
      out.broadcast(m);
    } else {
      for (NodeIndex d = 0; d < n_; ++d) out.send(d, m);
    }
  }
  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) senders_.push_back(m.sender);
  }
  bool done() const override { return executed_ >= rounds_; }
  std::vector<NodeIndex> senders_;

 private:
  NodeIndex self_;
  Round rounds_;
  NodeIndex n_;
  bool use_broadcast_;
  bool spoof_;
  Round executed_ = 0;
};

TEST(BroadcastFastPath, UntracedSharedInboxMatchesSendFanout) {
  // Without a trace sink a broadcast-only round takes the shared-inbox
  // path (docs/PERFORMANCE.md); with the expanded fan-out the same system
  // takes the per-node arena path. Same stats, same inboxes — including a
  // spoofer whose copies are rejected on both paths.
  const NodeIndex n = 6;
  auto build = [n](bool use_broadcast) {
    std::vector<std::unique_ptr<Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) {
      nodes.push_back(
          std::make_unique<PureBroadcaster>(v, 3, n, use_broadcast, v == 4));
    }
    return nodes;
  };
  Engine fast(build(true));
  fast.mark_byzantine(4);
  Engine seed(build(false));
  seed.mark_byzantine(4);
  const RunStats fast_stats = fast.run(6);
  const RunStats seed_stats = seed.run(6);
  EXPECT_EQ(fast_stats, seed_stats);
  EXPECT_EQ(fast_stats.spoofs_rejected, 3u * n);
  for (NodeIndex v = 0; v < n; ++v) {
    EXPECT_EQ(dynamic_cast<const PureBroadcaster&>(fast.node(v)).senders_,
              dynamic_cast<const PureBroadcaster&>(seed.node(v)).senders_)
        << "node " << v;
  }
}

// ----- One shared inbox per destination list ------------------------------
//
// A round whose entries all address one destination list shares one slot
// list among the alive nodes on it; every other receiver reads an empty
// view. Each scenario below is checked against a reference delivery kept
// in this file, computed from what the nodes sent: sender ascending, then
// send order, then list order, to alive destinations of unspoofed entries
// only. The run must agree with it on every node's inbox sequence, the set
// and order of receive() calls, and the message and spoof counts.

/// The script every ListNode of one run follows.
struct ListScript {
  NodeIndex n = 0;
  Round rounds = 6;
  std::vector<NodeIndex> list;      // the destination list of every entry
  NodeIndex odd_sender = kNoNode;   // addresses `odd_list` instead
  std::vector<NodeIndex> odd_list;
  NodeIndex spoofer = kNoNode;      // forges its origin on odd rounds
  std::vector<NodeIndex> nappers;   // idle from round 2 on
  std::uint64_t seed = 0;
  /// When set, every entry draws its list from these instead, so lists
  /// differ within a round.
  std::vector<std::vector<NodeIndex>> mixed;
};

using CallLog = std::vector<std::pair<Round, NodeIndex>>;

/// One logical entry a ListNode queued: its payload tag, its destination
/// list and whether it forged its origin.
struct SentEntry {
  Round round;
  NodeIndex sender;
  std::uint64_t tag;
  const std::vector<NodeIndex>* dests;
  bool spoofed;
};

/// What the nodes of one run did: their receive() and send() calls, and
/// every entry they queued, in call order.
struct RunLog {
  CallLog calls;
  CallLog sends;
  std::vector<SentEntry> sent;
};

/// Sends zero to two entries per round to its script's list (or a seeded
/// one of its mixed lists), each in a seeded form: a multicast of the list,
/// a send() loop over it (which the outbox coalesces into a repeat, or
/// leaves a unicast), or a broadcast where the list is [0, n) in order.
/// Nappers queue nothing after round 1 and report idle(), so they run
/// receive() only when a list wakes them.
class ListNode final : public Node {
 public:
  ListNode(NodeIndex self, const ListScript& script, RunLog* log)
      : self_(self), script_(script), run_(log),
        napper_(std::find(script.nappers.begin(), script.nappers.end(),
                          self) != script.nappers.end()) {}

  void send(Round round, Outbox& out) override {
    run_->sends.emplace_back(round, self_);
    if (napping_) return;
    SplitMix64 rng(script_.seed * 0x9e3779b97f4a7c15ULL + round * 131 +
                   self_);
    const std::uint64_t entries = rng.next() % 3;
    for (std::uint64_t k = 0; k < entries; ++k) {
      const std::vector<NodeIndex>& dests =
          !script_.mixed.empty()
              ? script_.mixed[rng.next() % script_.mixed.size()]
          : self_ == script_.odd_sender ? script_.odd_list
                                        : script_.list;
      bool everyone = dests.size() == script_.n;
      for (NodeIndex i = 0; everyone && i < dests.size(); ++i) {
        everyone = dests[i] == i;
      }
      Message m = make_message(kWave, raw_wire_bits(32),
                               static_cast<std::uint64_t>(self_),
                               std::uint64_t{round} * 4 + k);
      const bool spoof = self_ == script_.spoofer && round % 2 == 1;
      if (spoof) m.claimed_sender = (self_ + 1) % script_.n;
      run_->sent.push_back({round, self_, m.w[1], &dests, spoof});
      switch (rng.next() % 3) {
        case 0:
          out.multicast(dests, m);
          break;
        case 1:
          for (NodeIndex d : dests) out.send(d, m);
          break;
        default:
          if (everyone) {
            out.broadcast(m);
          } else {
            out.multicast(dests, m);
          }
      }
    }
  }

  void receive(Round round, InboxView inbox) override {
    run_->calls.emplace_back(round, self_);
    executed_ = round;
    if (napper_) napping_ = true;
    for (const Message& m : inbox) log_.emplace_back(round, m.sender, m.w[1]);
    if (!inbox.empty()) buffers_.emplace_back(round, inbox.buffer());
  }

  bool done() const override {
    return napping_ || executed_ >= script_.rounds;
  }
  bool idle() const override { return napping_; }

  const ReceiveLog& log() const { return log_; }
  /// The buffer behind each non-empty inbox, by round.
  const std::vector<std::pair<Round, const void*>>& buffers() const {
    return buffers_;
  }

 private:
  NodeIndex self_;
  const ListScript& script_;
  RunLog* run_;
  bool napper_;
  bool napping_ = false;
  Round executed_ = 0;
  ReceiveLog log_;
  std::vector<std::pair<Round, const void*>> buffers_;
};

/// Crash orders by round: (round, victim, how many of the victim's first
/// copies it keeps, at most all it queued).
class ScriptedCrashes final : public CrashAdversary {
 public:
  struct Crash {
    Round round;
    NodeIndex victim;
    std::uint32_t keep;
  };
  explicit ScriptedCrashes(std::vector<Crash> crashes)
      : crashes_(std::move(crashes)) {}

  std::vector<CrashOrder> decide(const AdversaryView& view) override {
    std::vector<CrashOrder> orders;
    for (const Crash& c : crashes_) {
      if (c.round != view.round || !view.is_alive(c.victim)) continue;
      CrashOrder o;
      o.victim = c.victim;
      const std::size_t queued = view.outbox(c.victim).size();
      for (std::uint32_t i = 0; i < c.keep && i < queued; ++i) {
        o.keep.push_back(i);
      }
      orders.push_back(std::move(o));
    }
    return orders;
  }
  std::uint64_t budget() const override { return crashes_.size(); }

 private:
  std::vector<Crash> crashes_;
};

/// Records every copy the accounting walk reports, in order.
class CopyTrace final : public TraceSink {
 public:
  void on_message(Round round, const Message& m, NodeIndex dest,
                  bool delivered) override {
    copies.emplace_back(round, m.sender, dest, m.w[1], delivered);
  }
  std::vector<std::tuple<Round, NodeIndex, NodeIndex, std::uint64_t, bool>>
      copies;
};

struct ListRun {
  RunStats stats;
  std::vector<ReceiveLog> logs;
  std::vector<std::vector<std::pair<Round, const void*>>> buffers;
  RunLog log;
  CopyTrace trace;
};

using Crashes = std::vector<ScriptedCrashes::Crash>;

ListRun run_lists(const ListScript& script, bool traced,
                  const Crashes& crashes = {}) {
  ListRun result;
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < script.n; ++v) {
    nodes.push_back(std::make_unique<ListNode>(v, script, &result.log));
  }
  Observers observers;
  if (traced) observers.trace = &result.trace;
  Engine engine(std::move(nodes), std::make_unique<ScriptedCrashes>(crashes),
                observers);
  if (script.spoofer != kNoNode) engine.mark_byzantine(script.spoofer);
  result.stats = engine.run(script.rounds);
  for (NodeIndex v = 0; v < script.n; ++v) {
    const auto& node = dynamic_cast<const ListNode&>(engine.node(v));
    result.logs.push_back(node.log());
    result.buffers.push_back(node.buffers());
  }
  return result;
}

/// The reference delivery of a run, from what its nodes sent.
struct Reference {
  std::vector<ReceiveLog> logs;
  CallLog calls;
  CallLog copies;  ///< (round, destination) of every copy, in walk order
  std::uint64_t messages = 0;
  std::uint64_t spoofs = 0;
};

Reference reference_delivery(const ListScript& script, const RunLog& log,
                             const Crashes& crashes) {
  Reference ref;
  ref.logs.resize(script.n);
  const auto crash_of = [&](NodeIndex v) -> const ScriptedCrashes::Crash* {
    for (const auto& c : crashes) {
      if (c.victim == v) return &c;
    }
    return nullptr;
  };
  const auto alive = [&](NodeIndex v, Round round) {
    const ScriptedCrashes::Crash* c = crash_of(v);
    return c == nullptr || c->round > round;
  };
  std::vector<SentEntry> sent = log.sent;
  std::stable_sort(sent.begin(), sent.end(),
                   [](const SentEntry& a, const SentEntry& b) {
                     return std::tie(a.round, a.sender) <
                            std::tie(b.round, b.sender);
                   });
  Round last_round = 0;
  for (const auto& [round, v] : log.sends) {
    last_round = std::max(last_round, round);
  }
  for (Round round = 1; round <= last_round; ++round) {
    std::vector<char> heard(script.n, 0);
    std::vector<std::uint32_t> kept(script.n, 0);  // copies a victim kept
    for (const SentEntry& e : sent) {
      if (e.round != round) continue;
      const ScriptedCrashes::Crash* c = crash_of(e.sender);
      const bool victim = c != nullptr && c->round == round;
      for (NodeIndex d : *e.dests) {
        if (victim && kept[e.sender] == c->keep) break;
        if (victim) ++kept[e.sender];
        ++ref.messages;
        ref.copies.emplace_back(round, d);
        if (e.spoofed) {
          ++ref.spoofs;
        } else if (alive(d, round)) {
          ref.logs[d].emplace_back(round, e.sender, e.tag);
          heard[d] = 1;
        }
      }
    }
    // receive() runs for the alive nodes that sent and for every alive
    // node that heard something, ascending.
    for (const auto& [r, v] : log.sends) {
      if (r == round && alive(v, round)) heard[v] = 1;
    }
    for (NodeIndex v = 0; v < script.n; ++v) {
      if (heard[v] != 0 && alive(v, round)) ref.calls.emplace_back(round, v);
    }
  }
  return ref;
}

void expect_matches_reference(const ListScript& script,
                              const Crashes& crashes,
                              const std::string& label) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ListScript seeded = script;
    seeded.seed = seed;
    const ListRun run = run_lists(seeded, false, crashes);
    const Reference ref = reference_delivery(seeded, run.log, crashes);
    ASSERT_GT(run.stats.total_messages, 0u) << label << " seed " << seed;
    EXPECT_EQ(run.stats.total_messages, ref.messages)
        << label << " seed " << seed;
    EXPECT_EQ(run.stats.spoofs_rejected, ref.spoofs)
        << label << " seed " << seed;
    EXPECT_EQ(run.log.calls, ref.calls)
        << label << " seed " << seed << ": receive() calls differ";
    for (NodeIndex v = 0; v < seeded.n; ++v) {
      EXPECT_EQ(run.logs[v], ref.logs[v])
          << label << " seed " << seed << ": inbox of node " << v;
    }
  }
}

TEST(SharedInboxFastPath, ListOutOfOrderMatchesArena) {
  // Nodes 1, 4, 6 and 8 send but are not listed: they read empty views.
  ListScript script;
  script.n = 9;
  script.list = {5, 2, 7, 0, 3};
  expect_matches_reference(script, {}, "out of order");
}

TEST(SharedInboxFastPath, ListWithCrashedAndIdleMembersMatchesArena) {
  // Node 7 falls in round 1 before sending, so later rounds list a dead
  // node; node 3 falls in round 3 keeping one message, so that round's cut
  // entry, a unicast, takes the arena path. Nappers 0 and 5 are listed idle
  // nodes that only the shared list wakes; napper 6 is unlisted and stays
  // asleep.
  ListScript script;
  script.n = 10;
  script.list = {5, 2, 7, 0, 3, 9};
  script.nappers = {0, 5, 6};
  expect_matches_reference(script, {{1, 7, 0}, {3, 3, 1}},
                           "crashed and idle");
}

TEST(SharedInboxFastPath, SpoofedEntryIsChargedButNeverShared) {
  ListScript script;
  script.n = 8;
  script.list = {6, 1, 4, 2};
  script.spoofer = 4;
  script.nappers = {1};
  expect_matches_reference(script, {}, "spoofed");
  const ListRun run = run_lists(script, false);
  EXPECT_GT(run.stats.spoofs_rejected, 0u);
}

TEST(SharedInboxFastPath, RepeatMulticastAndBroadcastOfOneListShare) {
  // [0, n) in order: broadcasts, multicasts and coalesced repeats all
  // address the same list, with one napper and one crash.
  ListScript script;
  script.n = 7;
  for (NodeIndex d = 0; d < script.n; ++d) script.list.push_back(d);
  script.nappers = {2};
  expect_matches_reference(script, {{2, 5, 0}}, "one list, forms");
}

TEST(SharedInboxFastPath, ListNamingANodeTwiceTakesTheArena) {
  // Node 5 is owed two copies of every entry.
  ListScript script;
  script.n = 8;
  script.list = {5, 2, 5, 0};
  script.nappers = {2};
  expect_matches_reference(script, {}, "duplicate");
}

TEST(SharedInboxFastPath, ListDifferingInItsLastEntryTakesTheArena) {
  ListScript script;
  script.n = 8;
  script.list = {6, 1, 4, 2};
  script.odd_sender = 3;
  script.odd_list = {6, 1, 4, 7};
  script.nappers = {7};
  expect_matches_reference(script, {}, "last entry differs");
}

TEST(SharedInboxFastPath, MixedListsMatchReference) {
  // Lists differ within a round, so rounds take per-node slices: [0, n)
  // sent as a broadcast, a unicast, a multicast naming node 6 twice and an
  // out-of-order list; node 9 spoofs on odd rounds. Node 3 falls in round 2
  // keeping its first three copies (a cut broadcast or multicast becomes a
  // repeat), node 0 in round 3 keeping none and node 6 in round 4 keeping
  // one; later rounds still list all three.
  ListScript script;
  script.n = 10;
  std::vector<NodeIndex> everyone;
  for (NodeIndex d = 0; d < script.n; ++d) everyone.push_back(d);
  script.mixed = {everyone, {4}, {6, 2, 6}, {5, 2, 7, 0, 3}};
  script.spoofer = 9;
  script.nappers = {1, 8};
  expect_matches_reference(script, {{2, 3, 3}, {3, 0, 0}, {4, 6, 1}},
                           "mixed lists");
}

TEST(SharedInboxFastPath, TracedRunSharesTheInboxAndTracesTheWalk) {
  // A trace no longer picks the delivery path: a traced run hands every
  // listed receiver of a round the same buffer, delivers exactly what the
  // untraced run does, and traces every copy of the reference walk —
  // spoofed and dead-destination copies as undelivered.
  ListScript script;
  script.n = 9;
  script.list = {5, 2, 7, 0, 3};
  script.spoofer = 7;
  script.nappers = {0};
  const Crashes crashes = {{2, 3, 0}};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    script.seed = seed;
    const ListRun traced = run_lists(script, true, crashes);
    const ListRun untraced = run_lists(script, false, crashes);
    const Reference ref = reference_delivery(script, traced.log, crashes);
    EXPECT_EQ(traced.stats, untraced.stats) << "seed " << seed;
    EXPECT_EQ(traced.logs, untraced.logs) << "seed " << seed;
    ASSERT_EQ(traced.trace.copies.size(), ref.copies.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < ref.copies.size(); ++i) {
      const auto& [round, sender, dest, tag, delivered] =
          traced.trace.copies[i];
      EXPECT_EQ(std::make_pair(round, dest), ref.copies[i])
          << "seed " << seed << " copy " << i;
      const bool landed = std::find(ref.logs[dest].begin(),
                                    ref.logs[dest].end(),
                                    std::make_tuple(round, sender, tag)) !=
                          ref.logs[dest].end();
      EXPECT_EQ(delivered, landed) << "seed " << seed << " copy " << i;
    }
    // Shared rounds: every listed receiver read one buffer.
    std::map<Round, std::set<const void*>> buffers;
    for (NodeIndex v = 0; v < script.n; ++v) {
      for (const auto& [round, buffer] : traced.buffers[v]) {
        buffers[round].insert(buffer);
      }
    }
    std::size_t shared_rounds = 0;
    for (const auto& [round, seen] : buffers) {
      if (seen.size() == 1) ++shared_rounds;
    }
    EXPECT_EQ(shared_rounds, buffers.size()) << "seed " << seed;
  }
}

TEST(BroadcastFastPath, MidSendCrashKeepIndicesAddressBroadcastRecipients) {
  // Victim 0 broadcasts to 5 nodes (logical entries 0..4, dest == index)
  // and crashes keeping logical indices {1, 3}: exactly nodes 1 and 3 see
  // the wave.
  const NodeIndex n = 5;
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<PureBroadcaster>(v, 2));
  }
  Engine engine(std::move(nodes),
                std::make_unique<ScriptedKeep>(
                    0, std::vector<std::uint32_t>{1, 3}));
  const RunStats stats = engine.run(5);
  EXPECT_EQ(stats.crashes, 1u);
  // Round 1: victim delivered 2 of 5, others 5 each.
  EXPECT_EQ(stats.per_round[0].messages, 2u + 4u * 5u);
  for (NodeIndex v = 1; v < n; ++v) {
    const auto& node = dynamic_cast<const PureBroadcaster&>(engine.node(v));
    int from_victim = 0;
    for (NodeIndex s : node.senders_) from_victim += (s == 0);
    EXPECT_EQ(from_victim, (v == 1 || v == 3) ? 1 : 0) << "node " << v;
  }
}

/// Varies its outbox size per round; exercises the reused buffers with
/// shrinking and growing outboxes and empty rounds.
class BurstyNode final : public Node {
 public:
  BurstyNode(NodeIndex self, NodeIndex n, Round rounds)
      : self_(self), n_(n), rounds_(rounds) {}
  void send(Round round, Outbox& out) override {
    // Round 1: burst of unicasts; round 2: nothing; round 3: broadcast.
    switch ((round - 1) % 3) {
      case 0:
        for (NodeIndex d = 0; d < n_; d += 2) {
          out.send(d, make_message(kExtra, raw_wire_bits(8),
                                   static_cast<std::uint64_t>(d)));
        }
        break;
      case 1:
        break;
      case 2:
        out.broadcast(make_message(kWave, raw_wire_bits(32),
                                   static_cast<std::uint64_t>(self_)));
        break;
    }
  }
  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    received_per_round_.push_back(inbox.size());
  }
  bool done() const override { return executed_ >= rounds_; }
  std::vector<std::size_t> received_per_round_;

 private:
  NodeIndex self_;
  NodeIndex n_;
  Round rounds_;
  Round executed_ = 0;
};

TEST(BufferReuse, ClearedOutboxesNeverLeakEntriesAcrossRounds) {
  const NodeIndex n = 6;
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<BurstyNode>(v, n, 6));
  }
  Engine engine(std::move(nodes));
  const RunStats stats = engine.run(6);
  ASSERT_EQ(stats.rounds, 6u);
  // Burst rounds: each node unicasts to ceil(n/2)=3 even dests; quiet
  // rounds carry zero traffic (a stale buffer would resurrect round-1
  // entries); broadcast rounds carry n^2.
  EXPECT_EQ(stats.per_round[0].messages, n * 3u);
  EXPECT_EQ(stats.per_round[1].messages, 0u);
  EXPECT_EQ(stats.per_round[2].messages,
            static_cast<std::uint64_t>(n) * n);
  EXPECT_EQ(stats.per_round[3].messages, n * 3u);
  EXPECT_EQ(stats.per_round[4].messages, 0u);
  EXPECT_EQ(stats.per_round[5].messages,
            static_cast<std::uint64_t>(n) * n);
  for (NodeIndex v = 0; v < n; ++v) {
    const auto& node = dynamic_cast<const BurstyNode&>(engine.node(v));
    // Even-indexed nodes get n unicasts, odd get none; everyone gets the
    // n broadcasts.
    const std::size_t unicasts = v % 2 == 0 ? n : 0;
    ASSERT_EQ(node.received_per_round_.size(), 6u);
    EXPECT_EQ(node.received_per_round_[0], unicasts);
    EXPECT_EQ(node.received_per_round_[1], 0u);
    EXPECT_EQ(node.received_per_round_[2], static_cast<std::size_t>(n));
  }
}

/// Sends one wave per round to a fixed subset of nodes (every third one),
/// either as a compressed multicast entry or as the per-destination send()
/// loop it compresses; unicast extras around it keep the outbox mixed.
class SubsetCaster : public Node {
 public:
  SubsetCaster(NodeIndex self, NodeIndex n, Round rounds, bool use_multicast,
               bool spoof = false)
      : self_(self), n_(n), rounds_(rounds), use_multicast_(use_multicast),
        spoof_(spoof) {
    for (NodeIndex d = self_ % 3; d < n_; d += 3) subset_.push_back(d);
  }

  void send(Round round, Outbox& out) override {
    out.send((self_ + 1) % n_,
             make_message(kExtra, raw_wire_bits(16),
                          static_cast<std::uint64_t>(round)));
    Message wave = make_message(kWave, raw_wire_bits(32),
                                static_cast<std::uint64_t>(self_), round);
    if (spoof_) wave.claimed_sender = (self_ + 1) % n_;
    if (use_multicast_) {
      out.multicast(subset_, wave);
    } else {
      for (NodeIndex d : subset_) out.send(d, wave);
    }
    if (self_ % 2 == 0) {
      out.send((self_ + 2) % n_,
               make_message(kExtra, raw_wire_bits(24),
                            static_cast<std::uint64_t>(round)));
    }
  }

  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) log_.emplace_back(round, m.sender, m.w[0]);
  }

  bool done() const override { return executed_ >= rounds_; }

  const ReceiveLog& log() const { return log_; }

 private:
  NodeIndex self_;
  NodeIndex n_;
  Round rounds_;
  bool use_multicast_;
  bool spoof_;
  std::vector<NodeIndex> subset_;
  Round executed_ = 0;
  ReceiveLog log_;
};

Observed run_subset_casts(bool use_multicast, NodeIndex n, Round rounds,
                          std::unique_ptr<CrashAdversary> adversary,
                          const std::vector<NodeIndex>& spoofers = {}) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    const bool spoof =
        std::find(spoofers.begin(), spoofers.end(), v) != spoofers.end();
    nodes.push_back(
        std::make_unique<SubsetCaster>(v, n, rounds, use_multicast, spoof));
  }
  std::ostringstream out;
  JsonlTrace trace(out);
  Engine engine(std::move(nodes), std::move(adversary), {.trace = &trace});
  for (NodeIndex v : spoofers) engine.mark_byzantine(v);
  Observed result;
  result.stats = engine.run(rounds + 5);
  result.jsonl = out.str();
  for (NodeIndex v = 0; v < n; ++v) {
    result.logs.push_back(
        dynamic_cast<const SubsetCaster&>(engine.node(v)).log());
  }
  return result;
}

TEST(MulticastFastPath, MatchesSendLoopWithoutFailures) {
  const Observed fast = run_subset_casts(true, 9, 3, nullptr);
  const Observed seed = run_subset_casts(false, 9, 3, nullptr);
  ASSERT_FALSE(fast.jsonl.empty());
  expect_equivalent(fast, seed);
}

TEST(MulticastFastPath, MatchesSendLoopUnderChaosMidSendCrashes) {
  // The chaos adversary's keep-indices address the per-recipient copy
  // sequence — they cut straight through compressed multicast entries.
  const Observed fast = run_subset_casts(
      true, 8, 4, std::make_unique<ChaosCrashAdversary>(5, 0.35, 131));
  const Observed seed = run_subset_casts(
      false, 8, 4, std::make_unique<ChaosCrashAdversary>(5, 0.35, 131));
  EXPECT_GT(fast.stats.crashes, 0u);
  expect_equivalent(fast, seed);
}

TEST(MulticastFastPath, MatchesSendLoopWithSpoofedMulticasts) {
  const Observed fast = run_subset_casts(true, 7, 3, nullptr, {2});
  const Observed seed = run_subset_casts(false, 7, 3, nullptr, {2});
  EXPECT_GT(fast.stats.spoofs_rejected, 0u);
  expect_equivalent(fast, seed);
}

TEST(MulticastFastPath, SpoofRecordsArePerCopyForRepeatPerEntryForMulticast) {
  // The send() loop coalesces into one kRepeat entry, which keeps unicast
  // fidelity: one telemetry instant and one journal event per forged
  // send() call. A multicast is one logical entry, so it gets one of each.
  // The rejected-copy count is per copy either way.
  const NodeIndex n = 9;
  const Round rounds = 3;
  const NodeIndex spoofer = 0;  // its subset is {0, 3, 6}
  const std::uint64_t subset = 3;
  auto run = [&](bool use_multicast) {
    std::vector<std::unique_ptr<Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) {
      nodes.push_back(std::make_unique<SubsetCaster>(v, n, rounds,
                                                     use_multicast,
                                                     v == spoofer));
    }
    obs::Telemetry tel;
    obs::Journal jrn;
    Engine engine(std::move(nodes), nullptr,
                  {.telemetry = &tel, .journal = &jrn});
    engine.mark_byzantine(spoofer);
    const RunStats stats = engine.run(rounds + 5);
    EXPECT_EQ(stats.rounds, rounds);
    std::uint64_t instants = 0;
    for (const auto& i : tel.instants()) {
      if (i.kind == obs::Instant::Kind::kSpoofRejected) {
        EXPECT_EQ(i.node, spoofer);
        ++instants;
      }
    }
    std::uint64_t events = 0;
    for (const obs::JournalRound& r : jrn.data().records) {
      for (const obs::JournalEvent& e : r.events) {
        if (e.kind == obs::JournalEvent::Kind::kSpoofRejected) ++events;
      }
    }
    EXPECT_EQ(stats.spoofs_rejected, rounds * subset);
    EXPECT_EQ(jrn.data().spoofs_rejected, rounds * subset);
    return std::pair{instants, events};
  };
  const std::uint64_t per_copy = rounds * subset;
  const std::uint64_t per_entry = rounds;
  EXPECT_EQ(run(/*use_multicast=*/false), std::pair(per_copy, per_copy));
  EXPECT_EQ(run(/*use_multicast=*/true), std::pair(per_entry, per_entry));
}

TEST(MulticastFastPath, MulticastToAllNodesMatchesBroadcast) {
  // A multicast whose destination list is 0..n-1 is logically a broadcast:
  // same per-copy accounting, same delivery order, same trace bytes.
  const NodeIndex n = 6;
  auto run = [n](bool use_broadcast) {
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<NodeIndex> all;
    for (NodeIndex d = 0; d < n; ++d) all.push_back(d);
    struct AllCaster final : Node {
      AllCaster(NodeIndex self, std::vector<NodeIndex> all, bool broadcast)
          : self_(self), all_(std::move(all)), broadcast_(broadcast) {}
      void send(Round, Outbox& out) override {
        Message m = make_message(kWave, raw_wire_bits(32),
                                 static_cast<std::uint64_t>(self_));
        if (broadcast_) {
          out.broadcast(m);
        } else {
          out.multicast(all_, m);
        }
      }
      void receive(Round round, InboxView inbox) override {
        executed_ = round;
        for (const Message& m : inbox) log_.emplace_back(round, m.sender, m.w[0]);
      }
      bool done() const override { return executed_ >= 2; }
      NodeIndex self_;
      std::vector<NodeIndex> all_;
      bool broadcast_;
      Round executed_ = 0;
      ReceiveLog log_;
    };
    for (NodeIndex v = 0; v < n; ++v) {
      nodes.push_back(std::make_unique<AllCaster>(v, all, use_broadcast));
    }
    std::ostringstream out;
    JsonlTrace trace(out);
    Engine engine(std::move(nodes), nullptr, {.trace = &trace});
    Observed result;
    result.stats = engine.run(5);
    result.jsonl = out.str();
    for (NodeIndex v = 0; v < n; ++v) {
      result.logs.push_back(
          dynamic_cast<const AllCaster&>(engine.node(v)).log_);
    }
    return result;
  };
  expect_equivalent(run(false), run(true));
}

TEST(Outbox, MulticastCopiesAndSizeMatchSendLoop) {
  const std::vector<NodeIndex> dests = {3, 0, 2};
  Outbox compressed(1, 4), loop(1, 4);
  compressed.send(1, make_message(kExtra, raw_wire_bits(8), std::uint64_t{7}));
  loop.send(1, make_message(kExtra, raw_wire_bits(8), std::uint64_t{7}));
  compressed.multicast(dests, make_message(kWave, raw_wire_bits(32),
                                           std::uint64_t{5}));
  for (NodeIndex d : dests) {
    loop.send(d, make_message(kWave, raw_wire_bits(32), std::uint64_t{5}));
  }
  EXPECT_EQ(compressed.entries().size(), 2u);
  EXPECT_EQ(compressed.size(), 4u);
  EXPECT_EQ(compressed.multicast_dests(0).size(), 3u);
  EXPECT_EQ(loop.size(), 4u);  // identical sends coalesced, same logical size
  const auto a = copies(compressed);
  const auto b = copies(loop);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second.kind, b[i].second.kind);
    EXPECT_EQ(a[i].second.sender, 1u);
    EXPECT_EQ(a[i].second.claimed_sender, 1u);
  }
}

using Copies = std::vector<std::pair<NodeIndex, Message>>;

// Field-by-field equality of two (dest, message) lists: queued entries or
// per-recipient copies.
void expect_same_entries(const Copies& a, const Copies& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& [da, ma] = a[i];
    const auto& [db, mb] = b[i];
    EXPECT_EQ(da, db) << label << " entry " << i;
    EXPECT_EQ(ma.sender, mb.sender) << label << " entry " << i;
    EXPECT_EQ(ma.claimed_sender, mb.claimed_sender) << label << " entry " << i;
    EXPECT_EQ(ma.kind, mb.kind) << label << " entry " << i;
    EXPECT_EQ(ma.nwords, mb.nwords) << label << " entry " << i;
    EXPECT_EQ(ma.bits, mb.bits) << label << " entry " << i;
    EXPECT_EQ(ma.w, mb.w) << label << " entry " << i;
    EXPECT_EQ(ma.blob, mb.blob) << label << " entry " << i;
  }
}

TEST(Outbox, InPlaceUnicastMatchesMakeThenSend) {
  // Random unicast sequences — runs of one payload, single sends, payloads
  // that differ only in kind or word count — interleaved with broadcast
  // and multicast entries, queued once through send(dest, make_message)
  // and once through the in-place wire::send: the queues must agree entry
  // for entry, coalescing included, and copy for copy.
  const wire::WireContext ctx{64, 5000};
  Xoshiro256 rng(0x0b0c);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    const auto n = static_cast<NodeIndex>(2 + rng.below(40));
    const auto self = static_cast<NodeIndex>(rng.below(n));
    Outbox made(self, n), in_place(self, n);
    // One unicast of shape 0 (STATUS, five words), 1 (NEW, one word) or
    // 2 (ID_REPORT, one word), from a small value pool so neighbouring
    // sends often carry equal payloads.
    const auto unicast = [&](NodeIndex dest, std::uint64_t shape,
                             std::uint64_t v) {
      switch (shape) {
        case 0:
          made.send(dest,
                    wire::make_message(Kind::kStatus, ctx, v, 1, 2, 3, v));
          wire::send(in_place, dest, Kind::kStatus, ctx, v, 1, 2, 3, v);
          break;
        case 1:
          made.send(dest, wire::make_message(Kind::kNew, ctx, v));
          wire::send(in_place, dest, Kind::kNew, ctx, v);
          break;
        default:
          made.send(dest, wire::make_message(Kind::kIdReport, ctx, v));
          wire::send(in_place, dest, Kind::kIdReport, ctx, v);
      }
    };
    const std::uint64_t ops = 1 + rng.below(30);
    for (std::uint64_t op = 0; op < ops; ++op) {
      switch (rng.below(6)) {
        case 0: {  // broadcast entry
          const Message m = wire::make_message(Kind::kCommittee, ctx,
                                               rng.below(3));
          made.broadcast(m);
          in_place.broadcast(m);
          break;
        }
        case 1: {  // multicast entry
          std::vector<NodeIndex> dests;
          for (std::uint64_t k = rng.below(5); k > 0; --k) {
            dests.push_back(static_cast<NodeIndex>(rng.below(n)));
          }
          const Message m = wire::make_message(Kind::kConsensus, ctx,
                                               rng.below(3), 7);
          made.multicast(dests, m);
          in_place.multicast(dests, m);
          break;
        }
        case 2:
        case 3: {  // a run of one payload to random destinations
          const std::uint64_t shape = rng.below(3);
          const std::uint64_t v = rng.below(3);
          for (std::uint64_t k = 1 + rng.below(6); k > 0; --k) {
            unicast(static_cast<NodeIndex>(rng.below(n)), shape, v);
          }
          break;
        }
        default:  // a single send
          unicast(static_cast<NodeIndex>(rng.below(n)), rng.below(3),
                  rng.below(3));
      }
    }
    expect_same_entries(made.entries(), in_place.entries(), label);
    ASSERT_EQ(made.size(), in_place.size()) << label;
    const auto lists = [](const Outbox& out) {
      return std::count_if(out.entries().begin(), out.entries().end(),
                           [](const auto& entry) {
                             return entry.first == Outbox::kMulticast ||
                                    entry.first == Outbox::kRepeat;
                           });
    };
    ASSERT_EQ(lists(made), lists(in_place)) << label;
    for (std::ptrdiff_t k = 0; k < lists(made); ++k) {
      const auto a = made.multicast_dests(static_cast<std::size_t>(k));
      const auto b = in_place.multicast_dests(static_cast<std::size_t>(k));
      EXPECT_EQ(std::vector<NodeIndex>(a.begin(), a.end()),
                std::vector<NodeIndex>(b.begin(), b.end()))
          << label << " list " << k;
    }
    expect_same_entries(copies(made), copies(in_place), label + " copies");
  }
}

/// A protocol with a genuine terminal wait state, exercising the idle
/// fast path end to end: every node broadcasts for a few rounds, then
/// naps (idle). A waker node stays active, and after a quiet stretch
/// unicasts a ping to every napper; woken nappers send one ack and nap
/// again. The engine must skip napping nodes during the quiet rounds yet
/// wake them the moment traffic addresses them.
constexpr MsgKind kPing = 13;
constexpr MsgKind kAck = 14;

class NapNode : public Node {
 public:
  NapNode(NodeIndex self, NodeIndex n, Round active_rounds, Round wake_round)
      : self_(self), n_(n), active_rounds_(active_rounds),
        wake_round_(wake_round) {}

  void send(Round round, Outbox& out) override {
    if (round <= active_rounds_) {
      out.broadcast(make_message(kWave, raw_wire_bits(32),
                                 static_cast<std::uint64_t>(self_), round));
    }
    if (self_ == 0 && round == wake_round_) {
      for (NodeIndex d = 1; d < n_; ++d) {
        out.send(d, make_message(kPing, raw_wire_bits(16),
                                 static_cast<std::uint64_t>(d)));
      }
    }
    if (self_ != 0 && woke_ && !acked_) {
      out.send(0, make_message(kAck, raw_wire_bits(16),
                               static_cast<std::uint64_t>(self_)));
      acked_ = true;
    }
  }

  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) {
      log_.emplace_back(round, m.sender, m.kind);
      if (m.kind == kPing) woke_ = true;
      if (m.kind == kAck) ++acks_;
    }
  }

  bool done() const override {
    return self_ == 0 ? acks_ >= n_ - 1 : acked_;
  }

  bool idle() const override {
    if (self_ == 0) return false;  // the waker is never skipped
    return executed_ >= active_rounds_ && (!woke_ || acked_);
  }

  std::vector<std::tuple<Round, NodeIndex, MsgKind>> log_;

 protected:
  NodeIndex self_;
  NodeIndex n_;
  Round active_rounds_;
  Round wake_round_;
  Round executed_ = 0;
  bool woke_ = false;
  bool acked_ = false;
  NodeIndex acks_ = 0;
};

/// Same protocol with the quiescence hint withheld: the engine runs every
/// node every round, exactly like the pre-optimization engine did.
class NeverIdleNapNode final : public NapNode {
 public:
  using NapNode::NapNode;
  bool idle() const override { return false; }
};

TEST(IdleFastPath, SkippingIdleNodesIsObservationallyInvisible) {
  const NodeIndex n = 11;
  auto run = [n](bool honor_idle,
                 std::unique_ptr<CrashAdversary> adversary) {
    std::vector<std::unique_ptr<Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) {
      if (honor_idle) {
        nodes.push_back(std::make_unique<NapNode>(v, n, 3, 8));
      } else {
        nodes.push_back(std::make_unique<NeverIdleNapNode>(v, n, 3, 8));
      }
    }
    std::ostringstream out;
    JsonlTrace trace(out);
    Engine engine(std::move(nodes), std::move(adversary), {.trace = &trace});
    Observed result;
    result.stats = engine.run(20);
    result.jsonl = out.str();
    for (NodeIndex v = 0; v < n; ++v) {
      const auto& log = dynamic_cast<const NapNode&>(engine.node(v)).log_;
      ReceiveLog converted;
      for (const auto& [r, s, k] : log) {
        converted.emplace_back(r, s, static_cast<std::uint64_t>(k));
      }
      result.logs.push_back(std::move(converted));
    }
    return result;
  };

  {
    const Observed fast = run(true, nullptr);
    const Observed seed = run(false, nullptr);
    // The run must actually exercise the nap: waves stop after round 3,
    // pings fly in round 8, acks in round 9.
    EXPECT_EQ(fast.stats.rounds, 9u);
    EXPECT_EQ(fast.stats.per_round[4].messages, 0u);  // everyone napping
    expect_equivalent(fast, seed);
  }
  {
    // Crashes interleaved with naps: victims must leave the active set on
    // both paths identically (same seed, same decisions).
    const Observed fast =
        run(true, std::make_unique<RandomCrashAdversary>(3, 0.08, 5));
    const Observed seed =
        run(false, std::make_unique<RandomCrashAdversary>(3, 0.08, 5));
    EXPECT_EQ(fast.stats.crashes, seed.stats.crashes);
    expect_equivalent(fast, seed);
  }
}

/// The nodes an arena's round addressed, in its order.
std::vector<NodeIndex> addressed(const InboxArena& arena) {
  std::vector<NodeIndex> nodes;
  arena.for_each_addressed([&](NodeIndex v) { nodes.push_back(v); });
  return nodes;
}

TEST(InboxArena, LazyResetLeavesUntouchedNodesEmpty) {
  // Lists that differ slice only the destinations they name; nodes the
  // round never addressed read an empty view through a stale stamp, with
  // no O(n) re-zeroing between rounds.
  const Message a = make_message(kWave, raw_wire_bits(16), std::uint64_t{1});
  const std::vector<NodeIndex> seven = {7};
  const std::vector<NodeIndex> nine = {9};
  const std::vector<NodeIndex> three = {3};
  std::vector<NodeIndex> everyone(64);
  for (NodeIndex v = 0; v < 64; ++v) everyone[v] = v;
  std::vector<bool> alive(64, true);
  InboxArena arena;
  arena.begin_round(alive);
  arena.expect(seven);
  arena.commit();
  arena.deliver(a, seven);
  EXPECT_EQ(addressed(arena), std::vector<NodeIndex>{7});
  ASSERT_EQ(arena.view(7).size(), 1u);
  EXPECT_TRUE(arena.view(8).empty());
  EXPECT_TRUE(arena.view(0).empty());

  // Next round touches a different node: node 7's old slice is invisible.
  arena.begin_round(alive);
  arena.expect(nine);
  arena.commit();
  arena.deliver(a, nine);
  EXPECT_TRUE(arena.view(7).empty());
  ASSERT_EQ(arena.view(9).size(), 1u);

  // A [0, 64) list and a unicast differ: every node gets a slice again.
  // The unicast is spoofed (counted, never delivered), and node 4, crashed,
  // never takes a slot.
  alive[4] = false;
  arena.begin_round(alive);
  arena.expect(everyone);
  arena.expect(three);
  arena.commit();
  arena.deliver(a, everyone);
  EXPECT_EQ(arena.view(3).size(), 1u);
  EXPECT_TRUE(arena.view(4).empty());
  EXPECT_EQ(addressed(arena).size(), 63u);

  // Changing n resets everything.
  const std::vector<bool> two(2, true);
  arena.begin_round(two);
  arena.commit();
  EXPECT_TRUE(arena.view(0).empty());
  EXPECT_TRUE(arena.view(1).empty());
}

/// A fixed-seed outbox mixing every entry form — unicasts, runs that
/// coalesce into repeats, multicasts (some naming a node twice) and
/// broadcasts, some carrying a blob or a forged claimed origin — and, kept
/// by hand as it is built, the per-recipient copy sequence its sends stand
/// for, stamped as the engine's stamp() would.
struct MixedOutbox {
  explicit MixedOutbox(std::uint64_t seed) : rng(seed) {
    n = static_cast<NodeIndex>(3 + rng.below(6));
    self = static_cast<NodeIndex>(rng.below(n));
    out = std::make_unique<Outbox>(self, n);
    blob = out->own_blob({seed, 0xB10B, seed * 3});
    for (std::uint64_t op = 4 + rng.below(8); op > 0; --op) {
      Message m = make_message(kWave, raw_wire_bits(8 + rng.below(3)),
                               rng.below(3), op);
      if (rng.chance(0.3)) m.blob = blob;
      if (rng.chance(0.2)) m.claimed_sender = (self + 1) % n;
      switch (rng.below(4)) {
        case 0:
          unicast(static_cast<NodeIndex>(rng.below(n)), m);
          break;
        case 1:  // a run of one payload: coalesces into a repeat
          for (std::uint64_t k = 2 + rng.below(3); k > 0; --k) {
            unicast(static_cast<NodeIndex>(rng.below(n)), m);
          }
          break;
        case 2: {
          std::vector<NodeIndex> dests;
          for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) {
            dests.push_back(static_cast<NodeIndex>(rng.below(n)));
          }
          out->multicast(dests, m);
          for (NodeIndex d : dests) sequence.emplace_back(d, stamped(m));
          break;
        }
        default:
          out->broadcast(m);
          for (NodeIndex d = 0; d < n; ++d) {
            sequence.emplace_back(d, stamped(m));
          }
      }
    }
  }

  void unicast(NodeIndex dest, const Message& m) {
    out->send(dest, m);
    sequence.emplace_back(dest, stamped(m));
  }

  Message stamped(Message m) const {
    if (m.claimed_sender == kNoNode) m.claimed_sender = self;
    m.sender = self;
    return m;
  }

  /// The copy range [first, last] of every stored entry, read off the
  /// entries and their destination lists.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entry_ranges() const {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    std::uint32_t first = 0;
    std::size_t lists = 0;
    for (const auto& [dest, msg] : out->entries()) {
      std::size_t len = 1;
      if (dest == Outbox::kBroadcast) {
        len = n;
      } else if (dest == Outbox::kMulticast || dest == Outbox::kRepeat) {
        len = out->multicast_dests(lists++).size();
      }
      const auto last = static_cast<std::uint32_t>(first + len - 1);
      ranges.emplace_back(first, last);
      first = last + 1;
    }
    return ranges;
  }

  Xoshiro256 rng;
  NodeIndex n = 0;
  NodeIndex self = 0;
  std::unique_ptr<Outbox> out;
  const std::vector<std::uint64_t>* blob = nullptr;
  Copies sequence;
};

/// The destination lists of an outbox's multicast and repeat entries.
std::vector<std::vector<NodeIndex>> lists_of(const Outbox& out) {
  std::vector<std::vector<NodeIndex>> lists;
  std::size_t k = 0;
  for (const auto& [dest, msg] : out.entries()) {
    if (dest != Outbox::kMulticast && dest != Outbox::kRepeat) continue;
    const auto list = out.multicast_dests(k++);
    lists.emplace_back(list.begin(), list.end());
  }
  return lists;
}

TEST(Outbox, CopyWalkFollowsTheSendSequence) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const MixedOutbox mixed(seed);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_EQ(mixed.out->size(), mixed.sequence.size()) << label;
    expect_same_entries(copies(*mixed.out), mixed.sequence, label);
  }
}

TEST(Outbox, KeepLeavesTheKeptCopiesAsPlainSends) {
  // Every fixed-seed mixed outbox, cut with each keep set: nothing, a
  // prefix, everything, a shuffled random subset, and one index at each
  // entry's first and last copy. After the cut the copy walk must be the
  // send sequence filtered by the keep set (stamps and blob pointers
  // included, the blobs still readable), size() its length, and the stored
  // entries those of an outbox that send()s the kept copies one by one.
  std::size_t cuts = 0;
  unsigned forms_cut = 0;  // bit per entry form met in a cut outbox
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const MixedOutbox probe(seed);
    const auto total = static_cast<std::uint32_t>(probe.sequence.size());
    std::vector<std::vector<std::uint32_t>> keep_sets(3);
    for (std::uint32_t i = 0; i < total; ++i) {
      keep_sets[2].push_back(i);
      if (i < total / 2) keep_sets[1].push_back(i);
    }
    Xoshiro256 rng(seed * 977);
    std::vector<std::uint32_t> subset;
    for (std::uint32_t i = 0; i < total; ++i) {
      if (rng.chance(0.5)) subset.push_back(i);
    }
    for (std::size_t i = subset.size(); i > 1; --i) {
      std::swap(subset[i - 1], subset[rng.below(i)]);
    }
    keep_sets.push_back(subset);
    for (const auto& [first, last] : probe.entry_ranges()) {
      keep_sets.push_back({first});
      if (last != first) keep_sets.push_back({last});
    }
    for (std::size_t set = 0; set < keep_sets.size(); ++set) {
      const std::vector<std::uint32_t>& keep = keep_sets[set];
      MixedOutbox mixed(seed);
      const std::string label = "seed " + std::to_string(seed) +
                                " keep set " + std::to_string(set);
      for (const auto& [dest, msg] : mixed.out->entries()) {
        forms_cut |= dest == Outbox::kBroadcast   ? 1u
                     : dest == Outbox::kMulticast ? 2u
                     : dest == Outbox::kRepeat    ? 4u
                                                  : 8u;
      }
      std::vector<std::uint32_t> sorted = keep;
      std::sort(sorted.begin(), sorted.end());
      Copies expected;
      for (std::uint32_t i : sorted) expected.push_back(mixed.sequence[i]);
      mixed.out->keep(keep);
      ++cuts;
      EXPECT_EQ(mixed.out->size(), keep.size()) << label;
      const Copies kept = copies(*mixed.out);
      expect_same_entries(kept, expected, label);
      for (const auto& [dest, msg] : kept) {
        if (msg.blob == nullptr) continue;
        EXPECT_EQ(*msg.blob,
                  (std::vector<std::uint64_t>{seed, 0xB10B, seed * 3}))
            << label;
      }
      Outbox plain(mixed.self, mixed.n);
      for (const auto& [dest, msg] : expected) plain.send(dest, msg);
      expect_same_entries(mixed.out->entries(), plain.entries(), label);
      EXPECT_EQ(lists_of(*mixed.out), lists_of(plain)) << label;
    }
  }
  EXPECT_GT(cuts, 60u * 5);
  EXPECT_EQ(forms_cut, 0b1111u) << "broadcast, multicast, repeat, unicast";
}

constexpr NodeIndex kFormsN = 6;

/// Payload `tag` of the forms victim's outbox.
Message form_message(std::uint64_t tag,
                     const std::vector<std::uint64_t>* blob = nullptr) {
  Message m = make_message(kWave, raw_wire_bits(16 + tag), tag);
  m.blob = blob;
  return m;
}

/// The forms victim's round-1 sends, one stamped copy per recipient: a
/// unicast to 3 (copy 0), a run to 1, 4, 2 that coalesces into a repeat
/// (1..3), a multicast to 5, 1, 3, 1 (4..7), a broadcast carrying a blob
/// (8..13) and a unicast to 2 (14).
Copies forms_sequence(const std::vector<std::uint64_t>* blob) {
  Copies seq;
  const auto add = [&](NodeIndex d, Message m) {
    m.sender = 0;
    m.claimed_sender = 0;
    seq.emplace_back(d, m);
  };
  add(3, form_message(1));
  for (NodeIndex d : {1u, 4u, 2u}) add(d, form_message(2));
  for (NodeIndex d : {5u, 1u, 3u, 1u}) add(d, form_message(3));
  for (NodeIndex d = 0; d < kFormsN; ++d) add(d, form_message(4, blob));
  add(2, form_message(5));
  return seq;
}

/// Round 1: node 0 queues forms_sequence() through its entry forms, or —
/// the plain twin — only the copies at `plain_keep` as individual send()s;
/// node 2 broadcasts a wave. Every node logs (round, sender, tag, blob's
/// second word) of what it receives, so a blob is read through.
class FormsNode final : public Node {
 public:
  FormsNode(NodeIndex self, const std::vector<std::uint32_t>* plain_keep)
      : self_(self), plain_keep_(plain_keep) {}

  void send(Round round, Outbox& out) override {
    if (round != 1) return;
    if (self_ == 2) {
      out.broadcast(make_message(kExtra, raw_wire_bits(12), 99));
    }
    if (self_ != 0) return;
    const auto* blob = out.own_blob({41, 42});
    if (plain_keep_ != nullptr) {
      const Copies seq = forms_sequence(blob);
      for (std::uint32_t i : *plain_keep_) out.send(seq[i].first, seq[i].second);
      return;
    }
    out.send(3, form_message(1));
    for (NodeIndex d : {1u, 4u, 2u}) out.send(d, form_message(2));
    out.multicast(std::vector<NodeIndex>{5, 1, 3, 1}, form_message(3));
    out.broadcast(form_message(4, blob));
    out.send(2, form_message(5));
  }

  void receive(Round round, InboxView inbox) override {
    executed_ = round;
    for (const Message& m : inbox) {
      log_.emplace_back(round, m.sender, m.w[0],
                        m.blob != nullptr ? (*m.blob)[1] : 0);
    }
  }
  bool done() const override { return executed_ >= 1; }

  std::vector<std::tuple<Round, NodeIndex, std::uint64_t, std::uint64_t>> log_;

 private:
  NodeIndex self_;
  const std::vector<std::uint32_t>* plain_keep_;
  Round executed_ = 0;
};

/// Every per-copy message event and every crash the engine reports.
class FormsTrace final : public TraceSink {
 public:
  void on_message(Round, const Message& m, NodeIndex dest,
                  bool delivered) override {
    messages.emplace_back(m.sender, dest, m.w[0], delivered);
  }
  void on_crash(Round round, NodeIndex victim, std::size_t kept,
                std::size_t queued) override {
    crashes.emplace_back(round, victim, kept, queued);
  }
  std::vector<std::tuple<NodeIndex, NodeIndex, std::uint64_t, bool>> messages;
  std::vector<std::tuple<Round, NodeIndex, std::size_t, std::size_t>> crashes;
};

struct FormsRun {
  RunStats stats;
  std::vector<decltype(FormsNode::log_)> logs;
  FormsTrace trace;
  std::string journal;
};

/// Crashes node 0 in round 1 with `keep`: from its entry forms, or, given
/// `plain_keep`, from the plain twin that queued only those copies and
/// keeps all of them.
FormsRun run_forms(const std::vector<std::uint32_t>& keep,
                   const std::vector<std::uint32_t>* plain_keep) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeIndex v = 0; v < kFormsN; ++v) {
    nodes.push_back(std::make_unique<FormsNode>(v, plain_keep));
  }
  FormsRun run;
  obs::Journal journal;
  Engine engine(std::move(nodes), std::make_unique<ScriptedKeep>(0, keep),
                {.trace = &run.trace, .journal = &journal});
  run.stats = engine.run(3);
  for (NodeIndex v = 0; v < kFormsN; ++v) {
    run.logs.push_back(dynamic_cast<const FormsNode&>(engine.node(v)).log_);
  }
  std::ostringstream bytes;
  obs::write_journal_binary(bytes, journal.data());
  run.journal = bytes.str();
  return run;
}

TEST(CrashCut, VictimOfEveryEntryFormDeliversExactlyItsKeptCopies) {
  // Keep sets: nothing, a prefix, everything, a subset, copies in the
  // middle of the broadcast, and one copy at each entry's first and last.
  const std::vector<std::vector<std::uint32_t>> keep_sets = {
      {},          {0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
      {13, 2, 5, 9, 7, 14, 10},
      {9, 11},     {0}, {1}, {3}, {4}, {7}, {8}, {13}, {14}};
  const std::vector<std::uint64_t> blob = {41, 42};
  const Copies seq = forms_sequence(&blob);
  for (const std::vector<std::uint32_t>& keep : keep_sets) {
    std::vector<std::uint32_t> sorted = keep;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> all_kept(sorted.size());
    for (std::uint32_t i = 0; i < all_kept.size(); ++i) all_kept[i] = i;
    std::string label = "keep {";
    for (std::uint32_t i : keep) label += " " + std::to_string(i);
    label += " }";

    const FormsRun cut = run_forms(keep, nullptr);
    const FormsRun plain = run_forms(all_kept, &sorted);

    // Reference delivery: node 0's kept copies in index order, then node
    // 2's wave, to every alive node; node 0 itself has crashed.
    std::vector<decltype(FormsNode::log_)> logs(kFormsN);
    std::uint64_t bits = 0;
    for (std::uint32_t i : sorted) {
      const auto& [dest, msg] = seq[i];
      bits += msg.bits;
      if (dest != 0) {
        logs[dest].emplace_back(1, 0, msg.w[0],
                                msg.blob != nullptr ? (*msg.blob)[1] : 0);
      }
    }
    for (NodeIndex d = 1; d < kFormsN; ++d) logs[d].emplace_back(1, 2, 99, 0);
    EXPECT_EQ(cut.logs, logs) << label;
    EXPECT_EQ(plain.logs, logs) << label;
    ASSERT_EQ(cut.stats.per_round.size(), 1u) << label;
    EXPECT_EQ(cut.stats.per_round[0].messages, sorted.size() + kFormsN)
        << label;
    EXPECT_EQ(cut.stats.per_round[0].bits, bits + 12u * kFormsN) << label;
    EXPECT_EQ(cut.stats.crashes, 1u) << label;
    EXPECT_EQ(cut.stats, plain.stats) << label;
    EXPECT_EQ(cut.trace.messages, plain.trace.messages) << label;
    ASSERT_EQ(cut.trace.crashes.size(), 1u) << label;
    EXPECT_EQ(cut.trace.crashes[0],
              std::make_tuple(Round{1}, NodeIndex{0}, keep.size(), seq.size()))
        << label;
    EXPECT_EQ(cut.journal, plain.journal) << label;
  }
}

TEST(InboxArena, UpperBoundSlicesReportOnlyDeliveredSlots) {
  // Two nodes; node 0 is expected to receive up to 3 messages but only 1
  // is delivered (a spoofed unicast, and the [0, 2) entry's copy to node 0
  // crashed away): view(0) must see exactly the delivered one, and node
  // 1's slice must be unaffected.
  const Message a = make_message(kWave, raw_wire_bits(16), std::uint64_t{1});
  const Message b = make_message(kWave, raw_wire_bits(16), std::uint64_t{2});
  const std::vector<NodeIndex> zero = {0};
  const std::vector<NodeIndex> one = {1};
  const std::vector<NodeIndex> both = {0, 1};
  const std::vector<bool> alive(2, true);
  InboxArena arena;
  arena.begin_round(alive);
  arena.expect(zero);
  arena.expect(zero);
  arena.expect(both);
  arena.commit();
  arena.deliver(a, zero);
  arena.deliver(b, one);
  ASSERT_EQ(arena.view(0).size(), 1u);
  EXPECT_EQ(arena.view(0)[0].w[0], 1u);
  ASSERT_EQ(arena.view(1).size(), 1u);
  EXPECT_EQ(arena.view(1)[0].w[0], 2u);
  // Round reuse: everything resets.
  arena.begin_round(alive);
  arena.commit();
  EXPECT_TRUE(arena.view(0).empty());
  EXPECT_TRUE(arena.view(1).empty());
}

}  // namespace
}  // namespace renaming::sim
