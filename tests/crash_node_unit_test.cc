// White-box unit tests for CrashNode: each sub-round's behaviour is checked
// against Figures 1-3 by feeding hand-crafted inboxes and inspecting the
// outbox — no engine, no randomness in the checked paths (the election
// probability is pinned to 1 via the constant).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crash/crash_renaming.h"
#include "obs/provenance.h"
#include "test_support.h"

namespace renaming::crash {
namespace {

using sim::wire::Kind;
using sim::wire::raw;
using test_support::copies;
using test_support::raw_wire_bits;
using test_support::Slots;

SystemConfig fixed_config() {
  SystemConfig cfg;
  cfg.n = 4;
  cfg.namespace_size = 1000;
  cfg.ids = {100, 200, 300, 400};  // node v has id 100*(v+1)
  cfg.seed = 1;
  return cfg;
}

CrashParams always_elected() {
  CrashParams p;
  p.election_constant = 1e9;  // probability clamps to 1: deterministic
  return p;
}

sim::Message status(NodeIndex sender, OriginalId id, Interval i,
                    std::uint32_t d, std::uint32_t p) {
  auto m = sim::make_message(raw(Kind::kStatus), raw_wire_bits(64), id,
                             i.lo, i.hi, d, p);
  m.sender = sender;
  m.claimed_sender = sender;
  return m;
}

sim::Message committee_notice(NodeIndex sender, OriginalId id) {
  auto m = sim::make_message(raw(Kind::kCommittee), raw_wire_bits(16),
                             id);
  m.sender = sender;
  m.claimed_sender = sender;
  return m;
}

sim::Message response(NodeIndex sender, OriginalId dest_id, Interval i,
                      std::uint32_t d, std::uint32_t p) {
  auto m = sim::make_message(raw(Kind::kResponse), raw_wire_bits(64),
                             dest_id, i.lo, i.hi, d, p);
  m.sender = sender;
  m.claimed_sender = sender;
  return m;
}

TEST(CrashNodeUnit, InitialState) {
  const auto cfg = fixed_config();
  CrashNode node(0, cfg, always_elected());
  EXPECT_EQ(node.interval(), Interval(1, 4));
  EXPECT_EQ(node.p(), 0u);
  EXPECT_EQ(node.depth(), 0u);
  EXPECT_TRUE(node.elected());  // constant pins probability to 1
  EXPECT_FALSE(node.new_id().has_value());
  EXPECT_FALSE(node.done());
}

TEST(CrashNodeUnit, Round1ElectedBroadcastsNotice) {
  const auto cfg = fixed_config();
  CrashNode node(1, cfg, always_elected());
  sim::Outbox out(1, 4);
  node.send(1, out);
  ASSERT_EQ(out.size(), 4u);  // all n links, including self
  for (const auto& [dest, msg] : out.entries()) {
    EXPECT_EQ(msg.kind, raw(Kind::kCommittee));
    EXPECT_EQ(msg.w[0], 200u);
  }
}

TEST(CrashNodeUnit, Round2ReportsOnlyToAnnouncedLinks) {
  const auto cfg = fixed_config();
  CrashNode node(0, cfg, always_elected());
  // Round 1: notices from links 2 and 3 only.
  std::vector<sim::Message> inbox = {committee_notice(2, 300),
                                     committee_notice(3, 400)};
  node.receive(1, Slots(inbox));
  sim::Outbox out(0, 4);
  node.send(2, out);
  ASSERT_EQ(out.size(), 2u);
  std::vector<NodeIndex> dests;
  for (const auto& [dest, msg] : copies(out)) {
    dests.push_back(dest);
    EXPECT_EQ(msg.kind, raw(Kind::kStatus));
    EXPECT_EQ(msg.w[0], 100u);           // its own identity
    EXPECT_EQ(Interval(msg.w[1], msg.w[2]), Interval(1, 4));
  }
  std::sort(dests.begin(), dests.end());
  EXPECT_EQ(dests, (std::vector<NodeIndex>{2, 3}));
}

// Drives one committee round-3 action of `member` (node 0 of an n-node
// system) with a crafted mailbox and returns its responses, one per
// recipient, in send order.
std::vector<std::pair<NodeIndex, sim::Message>> committee_round(
    CrashNode& member, NodeIndex n, const std::vector<sim::Message>& statuses) {
  member.receive(1, Slots({committee_notice(0, 100)}));
  member.receive(2, Slots(statuses));
  sim::Outbox out(0, n);
  member.send(3, out);
  return copies(out);
}

// committee_round in the fixed n = 4 system, with the responses decoded
// per recipient id.
std::map<OriginalId, Interval> committee_halving(
    CrashNode& member, const std::vector<sim::Message>& statuses,
    std::map<OriginalId, std::uint32_t>* depths = nullptr) {
  std::map<OriginalId, Interval> replies;
  for (const auto& [dest, msg] : committee_round(member, 4, statuses)) {
    EXPECT_EQ(msg.kind, raw(Kind::kResponse));
    replies[msg.w[0]] = Interval(msg.w[1], msg.w[2]);
    if (depths != nullptr) {
      (*depths)[msg.w[0]] = static_cast<std::uint32_t>(msg.w[3]);
    }
  }
  return replies;
}

TEST(CrashNodeUnit, CommitteeHalvesByRank) {
  const auto cfg = fixed_config();
  CrashNode member(0, cfg, always_elected());
  const Interval whole(1, 4);
  std::map<OriginalId, std::uint32_t> depths;
  const auto replies = committee_halving(
      member,
      {status(0, 100, whole, 0, 0), status(1, 200, whole, 0, 0),
       status(2, 300, whole, 0, 0), status(3, 400, whole, 0, 0)},
      &depths);
  // Ranks 1,2 -> bot [1,2]; ranks 3,4 -> top [3,4]; depth advanced to 1.
  EXPECT_EQ(replies.at(100), Interval(1, 2));
  EXPECT_EQ(replies.at(200), Interval(1, 2));
  EXPECT_EQ(replies.at(300), Interval(3, 4));
  EXPECT_EQ(replies.at(400), Interval(3, 4));
  for (const auto& [id, d] : depths) EXPECT_EQ(d, 1u) << id;
}

TEST(CrashNodeUnit, CommitteeCountsOccupiedBotSlots) {
  // One node already sits inside bot([1,4]) = [1,2]; only one rank-slot of
  // bot remains, so the rank-2 node at depth 0 must go top.
  const auto cfg = fixed_config();
  CrashNode member(0, cfg, always_elected());
  const auto replies = committee_halving(
      member, {status(0, 100, Interval(1, 4), 0, 0),
               status(1, 200, Interval(1, 4), 0, 0),
               status(2, 300, Interval(1, 2), 1, 0)});
  EXPECT_EQ(replies.at(100), Interval(1, 2));  // 1 occupied + rank 1 <= 2
  EXPECT_EQ(replies.at(200), Interval(3, 4));  // 1 occupied + rank 2 > 2
  EXPECT_EQ(replies.at(300), Interval(1, 2));  // deeper: echoed unchanged
}

TEST(CrashNodeUnit, CommitteeOnlyHalvesMinimumUndecidedDepth) {
  const auto cfg = fixed_config();
  CrashNode member(0, cfg, always_elected());
  std::map<OriginalId, std::uint32_t> depths;
  const auto replies = committee_halving(
      member,
      {status(0, 100, Interval(1, 4), 0, 0),
       status(1, 200, Interval(1, 4), 0, 0),
       status(2, 300, Interval(3, 4), 1, 0)},  // ahead: must wait
      &depths);
  EXPECT_EQ(replies.at(300), Interval(3, 4));
  EXPECT_EQ(depths.at(300), 1u);  // unchanged, not advanced
  EXPECT_EQ(depths.at(100), 1u);  // halved: 0 -> 1
}

TEST(CrashNodeUnit, SingletonsDoNotPinMinimumDepth) {
  // A decided node at depth 1 (singleton [3,3]) must not stop the
  // depth-2 nodes from halving (the Definition 2.1 subtlety).
  const auto cfg = fixed_config();
  CrashNode member(0, cfg, always_elected());
  std::map<OriginalId, std::uint32_t> depths;
  const auto replies = committee_halving(
      member,
      {status(0, 100, Interval(1, 2), 2, 0),
       status(1, 200, Interval(1, 2), 2, 0),
       status(2, 300, Interval(3, 3), 1, 0)},  // decided leaf, shallower
      &depths);
  EXPECT_EQ(replies.at(100), Interval(1, 1));
  EXPECT_EQ(replies.at(200), Interval(2, 2));
  EXPECT_EQ(replies.at(300), Interval(3, 3));  // echoed, never "halved"
  EXPECT_EQ(depths.at(100), 3u);
}

// One reported status, as the brute-force evaluator below sees it.
struct Reported {
  NodeIndex link;
  OriginalId id;
  Interval interval;
  std::uint32_t d;
};

// Figure 2 evaluated literally, O(M^2): each status at the minimum
// undecided depth counts its rank among equal intervals (ids <= its own)
// and the statuses already inside bot(I_w), then goes bot iff they fit.
std::vector<std::pair<Interval, std::uint32_t>> figure2_replies(
    const std::vector<Reported>& mailbox) {
  std::uint32_t min_depth = std::numeric_limits<std::uint32_t>::max();
  for (const Reported& s : mailbox) {
    if (!s.interval.singleton()) min_depth = std::min(min_depth, s.d);
  }
  std::vector<std::pair<Interval, std::uint32_t>> replies;
  for (const Reported& w : mailbox) {
    if (w.interval.singleton() || w.d != min_depth) {
      replies.emplace_back(w.interval, w.d);
      continue;
    }
    const Interval bot = w.interval.bot();
    std::uint64_t rank = 0;
    std::uint64_t occupied = 0;
    for (const Reported& u : mailbox) {
      rank += u.interval == w.interval && u.id <= w.id ? 1 : 0;
      occupied += u.interval.subset_of(bot) ? 1 : 0;
    }
    replies.emplace_back(
        occupied + rank <= bot.size() ? bot : w.interval.top(), w.d + 1);
  }
  return replies;
}

// A random interval of [1, n]: a vertex of the interval tree at a random
// depth (the laminar family honest runs produce), an arbitrary [lo, hi]
// that need not nest with anything, or a singleton.
Interval random_interval(Xoshiro256& rng, NodeIndex n) {
  switch (rng.below(3)) {
    case 0: {
      Interval v(1, n);
      for (std::uint64_t k = rng.below(7); k > 0 && !v.singleton(); --k) {
        v = rng.below(2) == 0 ? v.bot() : v.top();
      }
      return v;
    }
    case 1: {
      const std::uint64_t a = 1 + rng.below(n);
      const std::uint64_t b = 1 + rng.below(n);
      return Interval(std::min(a, b), std::max(a, b));
    }
    default: {
      const std::uint64_t x = 1 + rng.below(n);
      return Interval(x, x);
    }
  }
}

// Runs one committee round on `mailbox` (links must be distinct and < n)
// and checks every reply against figure2_replies.
void expect_sweep_matches_figure2(NodeIndex n,
                                  const std::vector<Reported>& mailbox,
                                  const std::string& trial) {
  SystemConfig cfg;
  cfg.n = n;
  cfg.namespace_size = 1000;
  for (NodeIndex v = 0; v < cfg.n; ++v) cfg.ids.push_back(100 * (v + 1));
  cfg.seed = 1;
  CrashNode member(0, cfg, always_elected());
  std::vector<sim::Message> inbox;
  for (const Reported& s : mailbox) {
    inbox.push_back(status(s.link, s.id, s.interval, s.d, 0));
  }

  const auto replies = committee_round(member, cfg.n, inbox);
  const auto expected = figure2_replies(mailbox);
  ASSERT_EQ(replies.size(), mailbox.size()) << trial;
  for (std::size_t j = 0; j < replies.size(); ++j) {
    const auto& [dest, msg] = replies[j];
    EXPECT_EQ(dest, mailbox[j].link) << trial;  // mailbox order
    EXPECT_EQ(msg.w[0], mailbox[j].id) << trial;
    EXPECT_EQ(Interval(msg.w[1], msg.w[2]), expected[j].first)
        << trial << " status " << j;
    EXPECT_EQ(msg.w[3], expected[j].second) << trial << " status " << j;
  }
}

// M statuses from links 0..M-1 with random intervals and depths in
// {0, 1, 2}; ids from a pool of about M/2 values so equal ids meet inside
// equal intervals.
std::vector<Reported> random_mailbox(Xoshiro256& rng, NodeIndex n,
                                     std::uint64_t m) {
  std::vector<Reported> mailbox;
  for (std::uint64_t j = 0; j < m; ++j) {
    mailbox.push_back(Reported{static_cast<NodeIndex>(j),
                               1 + rng.below(m / 2 + 1),
                               random_interval(rng, n),
                               static_cast<std::uint32_t>(rng.below(3))});
  }
  return mailbox;
}

TEST(CrashNodeUnit, CommitteeSweepMatchesFigure2) {
  Xoshiro256 rng(0x5eed);
  // Sparse mailboxes: M in [1, n], n in [2, 64].
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<NodeIndex>(2 + rng.below(63));
    expect_sweep_matches_figure2(
        n, random_mailbox(rng, n, 1 + rng.below(n)),
        "sparse trial " + std::to_string(trial));
  }
  // Dense mailboxes, M = n, as when every node reports to every member;
  // n in [2, 600], mostly not a power of two.
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<NodeIndex>(2 + rng.below(599));
    expect_sweep_matches_figure2(n, random_mailbox(rng, n, n),
                                 "dense trial " + std::to_string(trial));
  }
  // All-singleton mailboxes: every node decided, so nothing halves and
  // every status must come back as is.
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<NodeIndex>(2 + rng.below(599));
    std::vector<Reported> mailbox;
    for (NodeIndex j = 0; j < n; ++j) {
      const std::uint64_t x = 1 + rng.below(n);
      mailbox.push_back(Reported{j, 1 + rng.below(n), Interval(x, x),
                                 static_cast<std::uint32_t>(rng.below(12))});
    }
    expect_sweep_matches_figure2(n, mailbox,
                                 "singleton trial " + std::to_string(trial));
  }
  // Cap inside a run of equal ids: one group I = [1, 2b] at the minimum
  // depth with `occupied` statuses already inside bot(I) = [1, b], so
  // cap = b - occupied, and a run of equal ids covering ranks cap and
  // cap + 1. Every member of that run has rank > cap, so none of them
  // fits and exactly the run_lo - 1 smaller ids go bot.
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t b = 2 + rng.below(30);
    const auto n = static_cast<NodeIndex>(4 * b);
    const Interval whole(1, 2 * b);
    const std::uint64_t occupied = rng.below(b - 1);  // cap in [2, b]
    const std::uint64_t cap = b - occupied;
    const std::uint64_t group = cap + 1 + rng.below(b);
    // Sorted ids 1, 2, ..., with the run [run_lo, run_hi] (1-based ranks,
    // run_lo <= cap < run_hi) sharing one id.
    const std::uint64_t run_lo = 1 + rng.below(cap);
    const std::uint64_t run_hi = cap + 1 + rng.below(group - cap);
    std::vector<OriginalId> ids;
    for (std::uint64_t r = 1; r <= group; ++r) {
      ids.push_back(r < run_lo ? r : r <= run_hi ? run_lo : r);
    }
    for (std::size_t k = ids.size(); k > 1; --k) {
      std::swap(ids[k - 1], ids[rng.below(k)]);
    }

    std::vector<Reported> mailbox;
    for (const OriginalId id : ids) {
      mailbox.push_back(Reported{static_cast<NodeIndex>(mailbox.size()), id,
                                 whole, 0});
    }
    for (std::uint64_t k = 0; k < occupied; ++k) {  // deeper: echoed
      const std::uint64_t x = 1 + rng.below(b);
      mailbox.push_back(Reported{static_cast<NodeIndex>(mailbox.size()),
                                 1000 + k, Interval(x, x), 1});
    }
    const std::string label = "cap trial " + std::to_string(trial);
    expect_sweep_matches_figure2(n, mailbox, label);
    std::uint64_t bot = 0;
    for (const auto& [interval, d] : figure2_replies(mailbox)) {
      bot += d == 1 && interval == whole.bot() ? 1 : 0;
    }
    EXPECT_EQ(bot, run_lo - 1) << label;
  }
}

TEST(CrashNodeUnitDeathTest, StatusOutsideTheNamespaceIsRejected) {
  const auto cfg = fixed_config();  // n = 4
  CrashNode member(0, cfg, always_elected());
  member.receive(1, Slots({committee_notice(0, 100)}));
  EXPECT_DEATH(
      member.receive(2, Slots({status(1, 200, Interval(1, 5), 0, 0)})),
               "status interval outside");
}

TEST(CrashNodeUnit, NodeAdoptsDeepestThenLeftmostResponse) {
  const auto cfg = fixed_config();
  CrashParams params;
  params.election_constant = 0.0;  // never elected: pure NodeAction
  CrashNode node(0, cfg, params);
  node.receive(1, Slots({committee_notice(1, 200)}));
  node.receive(2, {});
  std::vector<sim::Message> responses = {
      response(1, 100, Interval(3, 4), 1, 0),
      response(2, 100, Interval(1, 2), 1, 0),  // same depth, smaller lo
      response(3, 100, Interval(1, 4), 0, 0),  // shallower: ignored
  };
  node.receive(3, Slots(responses));
  EXPECT_EQ(node.interval(), Interval(1, 2));
  EXPECT_EQ(node.depth(), 1u);
}

TEST(CrashNodeUnit, DecidedNodeKeepsIntervalButTracksP) {
  const auto cfg = fixed_config();
  CrashParams params;
  params.election_constant = 0.0;
  CrashNode node(0, cfg, params);
  // Drive to a decided state: adopt singleton response.
  node.receive(1, Slots({committee_notice(1, 200)}));
  node.receive(2, {});
  node.receive(3, Slots({response(1, 100, Interval(2, 2), 2, 0)}));
  ASSERT_EQ(node.new_id(), NewId{2});
  // Later response with a different interval must not move it, but a
  // larger p must still propagate.
  node.receive(4, Slots({committee_notice(1, 200)}));
  node.receive(5, {});
  node.receive(6, Slots({response(1, 100, Interval(3, 3), 2, 5)}));
  EXPECT_EQ(node.new_id(), NewId{2});
  EXPECT_EQ(node.p(), 5u);
}

TEST(CrashNodeUnit, NoResponsesBumpsP) {
  const auto cfg = fixed_config();
  CrashParams params;
  params.election_constant = 0.0;
  CrashNode node(2, cfg, params);
  EXPECT_EQ(node.p(), 0u);
  for (Round r = 1; r <= 6; ++r) node.receive(r, {});
  EXPECT_EQ(node.p(), 2u);  // one bump per committee-less phase
}

TEST(CrashNodeUnit, ResponsesForOtherIdsAreIgnored) {
  const auto cfg = fixed_config();
  CrashParams params;
  params.election_constant = 0.0;
  CrashNode node(0, cfg, params);
  node.receive(1, Slots({committee_notice(1, 200)}));
  node.receive(2, {});
  // A response addressed to id 200 reaches node 0 (misrouted/Byzantine-ish).
  node.receive(3, Slots({response(1, 200, Interval(3, 4), 1, 0)}));
  // Treated as "no response for me": p bumped, interval unchanged.
  EXPECT_EQ(node.interval(), Interval(1, 4));
  EXPECT_EQ(node.p(), 1u);
}

// Figure 3 as sort-and-adopt: the node_action that collected the
// responses addressed to the node, sorted them by (d descending, lo
// ascending) with std::sort and adopted the front. Kept as the reference
// for the one-pass node_action; it models the node's Figure 3 state, with
// the election constant low enough that try_elect elects exactly when the
// probability reaches 1.
struct Figure3Reference {
  struct Response {
    Interval interval;
    std::uint32_t d;
    std::uint32_t p;
    NodeIndex link;
    std::uint32_t bits;
  };

  Figure3Reference(NodeIndex n_, OriginalId id_, CrashParams params_)
      : n(n_), id(id_), params(params_), interval(1, n_) {}

  NodeIndex n;
  OriginalId id;
  CrashParams params;
  Interval interval;
  std::uint32_t d = 0;
  std::uint32_t p = 0;
  bool elected = false;
  bool finished_early = false;
  /// Link of the adopted response, kNoNode when nothing was adopted.
  NodeIndex adopted_link = kNoNode;
  /// Every adoption so far: (round, link), the cause provenance records.
  std::vector<std::pair<Round, NodeIndex>> adoptions;

  void try_elect() {
    const double prob = params.election_constant * std::ldexp(1.0, p) *
                        protocol_log(n) / static_cast<double>(n);
    elected = elected || prob >= 1.0;
  }

  void node_action(Round round, const std::vector<sim::Message>& inbox) {
    adopted_link = kNoNode;
    std::vector<Response> responses;
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kResponse)) continue;
      if (m.w[0] != id) continue;
      responses.push_back(Response{Interval(m.w[1], m.w[2]),
                                   static_cast<std::uint32_t>(m.w[3]),
                                   static_cast<std::uint32_t>(m.w[4]),
                                   m.sender, m.bits});
      if (params.early_stopping && (m.w[4] >> 32) != 0 &&
          interval.singleton()) {
        finished_early = true;
      }
    }
    if (responses.empty()) {
      ++p;
      try_elect();
      return;
    }
    std::sort(responses.begin(), responses.end(),
              [](const Response& a, const Response& b) {
                if (a.d != b.d) return a.d > b.d;
                return a.interval.lo < b.interval.lo;
              });
    if (!interval.singleton()) {
      d = responses.front().d;
      interval = responses.front().interval;
      adopted_link = responses.front().link;
      adoptions.emplace_back(round, adopted_link);
    }
    std::uint32_t max_p = 0;
    for (const Response& r : responses) max_p = std::max(max_p, r.p);
    if (max_p > p) {
      p = max_p;
      try_elect();
    }
  }
};

// A response whose interval is a function of (d, lo), as in honest runs,
// where equal (d, lo) means the same interval-tree vertex.
sim::Message tree_response(NodeIndex sender, OriginalId dest_id, NodeIndex n,
                           std::uint64_t lo, std::uint32_t d, std::uint64_t p,
                           bool done_flag) {
  const std::uint64_t hi = lo + (7 * d + 13 * lo) % (n - lo + 1);
  auto m = response(sender, dest_id, Interval(lo, hi), d, 0);
  m.w[4] = p | (std::uint64_t{done_flag ? 1u : 0u} << 32);
  m.bits = raw_wire_bits(static_cast<std::uint32_t>(40 + sender));
  return m;
}

TEST(CrashNodeUnit, NodeActionMatchesSortAndAdopt) {
  Xoshiro256 rng(0xf163);
  int empty_inboxes = 0, reelections = 0, early_stops = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    SystemConfig cfg;
    cfg.n = static_cast<NodeIndex>(4 + rng.below(61));
    cfg.namespace_size = 1000;
    for (NodeIndex v = 0; v < cfg.n; ++v) cfg.ids.push_back(100 * (v + 1));
    cfg.seed = 1;
    CrashParams params;
    // Probability ~1e-14 at the small p values below (never elected) and
    // >= 1 at p = kHighP: re-election is deterministic.
    params.election_constant = 1e-15;
    params.early_stopping = rng.below(2) == 0;
    constexpr std::uint64_t kHighP = 60;

    // `traced` runs the same inputs with a provenance recorder attached,
    // whose adoption links must name the reference's sort front.
    CrashNode node(0, cfg, params);
    obs::Provenance prov;
    prov.begin_run(cfg.n);
    CrashNode traced(0, cfg, params, nullptr, &prov);
    Figure3Reference ref(cfg.n, cfg.ids[0], params);
    ASSERT_FALSE(node.elected()) << label;

    const Round phases = 3 * ceil_log2(cfg.n);
    for (Round phase = 0; phase < phases && !node.done(); ++phase) {
      const Round r = 3 * phase;
      for (const Round sub : {r + 1, r + 2}) {
        node.receive(sub, {});
        traced.receive(sub, {});
      }
      // Ties: half the responses draw lo and d from small pools.
      std::vector<sim::Message> inbox;
      const std::uint64_t count = rng.below(5) == 0 ? 0 : rng.below(30);
      const std::uint64_t lo_pool[] = {1, 1 + cfg.n / 2, 1 + rng.below(cfg.n)};
      for (std::uint64_t k = 0; k < count; ++k) {
        const bool tie = rng.below(2) == 0;
        const std::uint64_t lo =
            tie ? lo_pool[rng.below(3)] : 1 + rng.below(cfg.n);
        const auto d = static_cast<std::uint32_t>(rng.below(tie ? 2 : 6));
        const std::uint64_t p = rng.below(20) == 0 ? kHighP : rng.below(4);
        const bool done_flag = rng.below(4) == 0;
        const auto sender = static_cast<NodeIndex>(rng.below(cfg.n));
        switch (rng.below(8)) {
          case 0:  // addressed to another identity
            inbox.push_back(tree_response(sender, cfg.ids[1 + rng.below(
                                                      cfg.n - 1)],
                                          cfg.n, lo, d, p, done_flag));
            break;
          case 1:  // another kind from the same sender
            inbox.push_back(status(sender, cfg.ids[0], Interval(lo, lo), d,
                                   static_cast<std::uint32_t>(p)));
            break;
          default:
            inbox.push_back(tree_response(sender, cfg.ids[0], cfg.n, lo, d,
                                          p, done_flag));
        }
      }
      node.receive(r + 3, Slots(inbox));
      traced.receive(r + 3, Slots(inbox));
      const bool was_elected = ref.elected;
      ref.node_action(r + 3, inbox);
      empty_inboxes += inbox.empty() ? 1 : 0;
      reelections += !was_elected && ref.elected ? 1 : 0;
      const std::string at = label + " phase " + std::to_string(phase);
      for (const CrashNode* v : {&node, &traced}) {
        ASSERT_EQ(v->interval(), ref.interval) << at;
        ASSERT_EQ(v->depth(), ref.d) << at;
        ASSERT_EQ(v->p(), ref.p) << at;
        ASSERT_EQ(v->elected(), ref.elected) << at;
        ASSERT_EQ(v->done(), ref.finished_early || phase + 1 == phases)
            << at;
      }
    }
    prov.end_run(3 * phases);
    std::vector<std::pair<Round, NodeIndex>> recorded;
    for (const obs::ProvEvent& ev : prov.data().events) {
      if (ev.node == 0 && (ev.kind == obs::ProvEventKind::kNameProposal ||
                           ev.kind == obs::ProvEventKind::kNameClaim)) {
        ASSERT_EQ(ev.cause_count, 1u) << label;
        recorded.emplace_back(ev.round, ev.causes[0].sender);
      }
    }
    EXPECT_EQ(recorded, ref.adoptions) << label;
    early_stops += ref.finished_early ? 1 : 0;
  }
  // The draws reach every branch of Figure 3.
  EXPECT_GT(empty_inboxes, 0);
  EXPECT_GT(reelections, 0);
  EXPECT_GT(early_stops, 0);
}

TEST(CrashNodeUnit, AdoptionLinkIsSortFrontAmongManyTies) {
  // More than 16 tied first-ranked responses: std::sort partitions
  // instead of insertion-sorting, so the tie it puts first is not the
  // first in inbox order, and provenance's adoption link names that one.
  SystemConfig cfg;
  cfg.n = 64;
  cfg.namespace_size = 10000;
  for (NodeIndex v = 0; v < cfg.n; ++v) cfg.ids.push_back(100 * (v + 1));
  cfg.seed = 1;
  CrashParams params;
  params.election_constant = 0.0;
  for (const std::size_t ties : {17u, 20u, 33u, 63u}) {
    obs::Provenance prov;
    prov.begin_run(cfg.n);
    CrashNode node(0, cfg, params, nullptr, &prov);
    Figure3Reference ref(cfg.n, cfg.ids[0], params);
    node.receive(1, {});
    node.receive(2, {});
    std::vector<sim::Message> inbox;
    for (NodeIndex k = 1; k <= ties; ++k) {
      // A first-ranked tie, then a shallower response that ranks below.
      inbox.push_back(tree_response(k, cfg.ids[0], cfg.n, 1, 3, 0, false));
      inbox.push_back(tree_response(k, cfg.ids[0], cfg.n, 1 + 2 * (k % 3),
                                    k % 3 == 0 ? 0 : 2, 0, false));
    }
    node.receive(3, Slots(inbox));
    ref.node_action(3, inbox);
    prov.end_run(3);
    ASSERT_NE(ref.adopted_link, kNoNode);
    ASSERT_NE(ref.adopted_link, NodeIndex{1})
        << "the case must tell the sort's front from the first tie";
    EXPECT_EQ(node.interval(), ref.interval);

    const auto data = prov.data();
    std::vector<obs::ProvEvent> adoptions;
    for (const obs::ProvEvent& ev : data.events) {
      if (ev.node == 0 && (ev.kind == obs::ProvEventKind::kNameProposal ||
                           ev.kind == obs::ProvEventKind::kNameClaim)) {
        adoptions.push_back(ev);
      }
    }
    ASSERT_EQ(adoptions.size(), 1u) << ties;
    ASSERT_EQ(adoptions[0].cause_count, 1u) << ties;
    EXPECT_EQ(adoptions[0].causes[0].sender, ref.adopted_link) << ties;
    EXPECT_EQ(adoptions[0].causes[0].bits, 40 + ref.adopted_link) << ties;
  }
}

TEST(CrashNodeUnit, CommitteeAbsorbsMaxP) {
  const auto cfg = fixed_config();
  CrashNode member(0, cfg, always_elected());
  member.receive(1, Slots({committee_notice(0, 100)}));
  member.receive(2, Slots({status(0, 100, Interval(1, 4), 0, 0),
                           status(1, 200, Interval(1, 4), 0, 3)}));
  EXPECT_EQ(member.p(), 3u);
  // And it is stamped into the responses.
  sim::Outbox out(0, 4);
  member.send(3, out);
  for (const auto& [dest, msg] : out.entries()) {
    EXPECT_EQ(static_cast<std::uint32_t>(msg.w[4]), 3u);
  }
}

TEST(CrashNodeUnit, DoneAfterAllPhases) {
  const auto cfg = fixed_config();  // n = 4 -> 3 * 2 phases * 3 rounds = 18
  CrashParams params;
  params.election_constant = 0.0;
  CrashNode node(0, cfg, params);
  for (Round r = 1; r <= 18; ++r) {
    EXPECT_FALSE(node.done()) << r;
    node.receive(r, {});
  }
  EXPECT_TRUE(node.done());
}

}  // namespace
}  // namespace renaming::crash
