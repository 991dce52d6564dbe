#include "crash/crash_renaming.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

#include "sim/engine.h"

namespace renaming::crash {

namespace {

constexpr std::uint32_t kSubrounds = 3;

std::uint32_t subround(Round round) { return (round - 1) % kSubrounds + 1; }

// Central phase-id table (obs/phase.h): one phase per subround.
obs::PhaseId phase_of_subround(std::uint32_t sub) {
  switch (sub) {
    case 1: return obs::PhaseId::kCommitteeAnnounce;
    case 2: return obs::PhaseId::kStatusReport;
    case 3: return obs::PhaseId::kCommitteeResponse;
    default: return obs::PhaseId::kUnattributed;
  }
}

// Fenwick (binary indexed) tree over compressed interval endpoints, used by
// committee_action's offline dominance count. Plain prefix sums, 1-based.
class Fenwick {
 public:
  explicit Fenwick(std::size_t size) : tree_(size + 1, 0) {}

  void add(std::size_t i) {
    for (++i; i < tree_.size(); i += i & (~i + 1)) ++tree_[i];
  }

  std::uint64_t prefix(std::size_t count) const {
    std::uint64_t total = 0;
    for (std::size_t i = count; i > 0; i -= i & (~i + 1)) total += tree_[i];
    return total;
  }

 private:
  std::vector<std::uint64_t> tree_;
};

}  // namespace

CrashNode::CrashNode(NodeIndex self, const SystemConfig& cfg,
                     CrashParams params, obs::Telemetry* telemetry,
                     obs::Provenance* provenance)
    : self_(self),
      n_(cfg.n),
      wire_{cfg.n, cfg.namespace_size},
      id_(cfg.ids[self]),
      params_(params),
      total_phases_(params.phase_multiplier * ceil_log2(cfg.n)),
      rng_(SplitMix64(cfg.seed).next() ^ (0x6e6f646500ULL + self)),
      telemetry_(telemetry),
      provenance_(provenance),
      interval_(1, cfg.n) {
  // Figure 1 line 2: initial self-election with probability c*log(n)/n.
  try_elect(0);
}

void CrashNode::try_elect(Round round) {
  if (elected_) return;
  const double logn = static_cast<double>(protocol_log(n_));
  const int exponent = params_.adaptive_reelection ? static_cast<int>(p_) : 0;
  const double prob = params_.election_constant * std::ldexp(1.0, exponent) *
                      logn / static_cast<double>(n_);
  if (rng_.chance(prob)) {
    elected_ = true;
    if (provenance_ != nullptr) {
      provenance_->note_event(round, self_,
                              obs::ProvEventKind::kCommitteeVote,
                              static_cast<sim::MsgKind>(Tag::kCommittee),
                              /*a=*/p_, /*b=*/1, {});
    }
  }
}

std::optional<NewId> CrashNode::new_id() const {
  if (interval_.singleton()) return interval_.lo;
  return std::nullopt;
}

bool CrashNode::done() const {
  return finished_early_ || rounds_executed_ >= total_phases_ * kSubrounds;
}

void CrashNode::send(Round round, sim::Outbox& out) {
  if (done()) return;
  const obs::PhaseScope scope(telemetry_, self_, phase_of_subround(subround(round)),
                              round);
  switch (subround(round)) {
    case 1:
      // Committee announcement on all n links (Figure 1 line 5).
      if (elected_) {
        out.broadcast(sim::wire::make_message(
            static_cast<sim::MsgKind>(Tag::kCommittee), wire_, id_));
      }
      break;
    case 2:
      // Report status to every link that announced committee membership
      // (Figure 1 lines 6-7). Note this includes ourselves if elected.
      for (NodeIndex link : announced_committee_) {
        out.send(link, sim::wire::make_message(
                           static_cast<sim::MsgKind>(Tag::kStatus), wire_,
                           id_, interval_.lo, interval_.hi, d_, p_));
      }
      break;
    case 3:
      if (elected_) committee_action(round, out);
      break;
    default:
      break;
  }
}

void CrashNode::committee_action(Round round, sim::Outbox& out) {
  // Figure 2. The minimum depth is taken over *undecided* intervals (see
  // header: Definition 2.1 restricts depth to nodes with |I_v| > 1).
  std::uint32_t min_depth = std::numeric_limits<std::uint32_t>::max();
  bool all_singleton = !mailbox_.empty();
  for (const Status& s : mailbox_) {
    if (!s.interval.singleton()) {
      min_depth = std::min(min_depth, s.d);
      all_singleton = false;
    }
  }
  // Early-stopping extension: every alive node reports to an alive member,
  // so an all-singleton mailbox proves global completion.
  const std::uint64_t done_flag =
      params_.early_stopping && all_singleton ? 1 : 0;

  // A committee member's mailbox holds one status per reporting node — up
  // to n of them — and the naive Figure 2 evaluation recomputes two counts
  // with an O(M) scan per status, an O(M^2) round that dominates every
  // run past a few thousand nodes. Both counts are order statistics, so
  // they precompute in O(M log M) and the per-status work drops to two
  // binary searches. Exact for every input (no laminarity assumption):
  //
  //   rank(w)     = #{u : I_u == I_w and id_u <= id_w}
  //                 -> sorted (lo, hi, id) triples + upper_bound.
  //   occupied(w) = #{u : I_u subset_of bot(I_w)}
  //                 = #{u : lo_u >= bot.lo and hi_u <= bot.hi}
  //                 -> offline 2D dominance count: statuses inserted in
  //                    descending-lo order into a Fenwick tree over
  //                    compressed hi values, queries answered in
  //                    descending-bot.lo order.
  const std::size_t total = mailbox_.size();
  std::vector<std::array<std::uint64_t, 3>> by_interval;  // (lo, hi, id)
  by_interval.reserve(total);
  std::vector<std::uint64_t> his;  // compressed hi universe
  his.reserve(total);
  for (const Status& u : mailbox_) {
    by_interval.push_back({u.interval.lo, u.interval.hi, u.id});
    his.push_back(u.interval.hi);
  }
  std::sort(by_interval.begin(), by_interval.end());
  std::sort(his.begin(), his.end());
  his.erase(std::unique(his.begin(), his.end()), his.end());

  // Queries: one per status that halves this subround, keyed by bot(I_w).
  // bot.lo == I_w.lo, so descending bot.lo orders both sides of the sweep.
  struct OccupiedQuery {
    std::uint64_t bot_lo = 0;
    std::uint64_t bot_hi = 0;
    std::size_t status_index = 0;
  };
  std::vector<OccupiedQuery> queries;
  for (std::size_t i = 0; i < total; ++i) {
    const Status& w = mailbox_[i];
    if (!w.interval.singleton() && w.d == min_depth) {
      const Interval bot = w.interval.bot();
      queries.push_back({bot.lo, bot.hi, i});
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const OccupiedQuery& a, const OccupiedQuery& b) {
              return a.bot_lo > b.bot_lo;
            });
  std::vector<std::size_t> by_lo_desc(total);
  for (std::size_t i = 0; i < total; ++i) by_lo_desc[i] = i;
  std::sort(by_lo_desc.begin(), by_lo_desc.end(),
            [&](std::size_t a, std::size_t b) {
              return mailbox_[a].interval.lo > mailbox_[b].interval.lo;
            });
  std::vector<std::uint64_t> occupied_of(total, 0);
  Fenwick fen(his.size());
  std::size_t inserted = 0;
  for (const OccupiedQuery& q : queries) {
    while (inserted < total &&
           mailbox_[by_lo_desc[inserted]].interval.lo >= q.bot_lo) {
      const std::uint64_t hi = mailbox_[by_lo_desc[inserted]].interval.hi;
      fen.add(static_cast<std::size_t>(
          std::lower_bound(his.begin(), his.end(), hi) - his.begin()));
      ++inserted;
    }
    const std::size_t below = static_cast<std::size_t>(
        std::upper_bound(his.begin(), his.end(), q.bot_hi) - his.begin());
    occupied_of[q.status_index] = fen.prefix(below);
  }

  for (const Status& w : mailbox_) {
    Interval reply_interval = w.interval;
    std::uint32_t reply_d = w.d;
    if (!w.interval.singleton() && w.d == min_depth) {
      // Halve: compare w's rank among same-interval nodes against the
      // capacity of bot(I_w), counting nodes already inside bot(I_w).
      const Interval bot = w.interval.bot();
      const std::array<std::uint64_t, 3> key = {w.interval.lo, w.interval.hi,
                                                w.id};
      const std::uint64_t rank = static_cast<std::uint64_t>(
          std::upper_bound(by_interval.begin(), by_interval.end(), key) -
          std::lower_bound(by_interval.begin(), by_interval.end(),
                           std::array<std::uint64_t, 3>{
                               w.interval.lo, w.interval.hi, 0}));
      const std::uint64_t occupied =
          occupied_of[static_cast<std::size_t>(&w - mailbox_.data())];
      RENAMING_CHECK(rank >= 1, "w's own status is in the mailbox");
      if (occupied + rank <= bot.size()) {
        reply_interval = bot;
      } else {
        reply_interval = w.interval.top();
      }
      reply_d = w.d + 1;
      if (provenance_ != nullptr) {
        // One vote per halving reply: the member decided reply_interval
        // *for w.link*, because of w.link's status report.
        provenance_->note_event(
            round, self_, obs::ProvEventKind::kCommitteeVote,
            static_cast<sim::MsgKind>(Tag::kResponse), reply_interval.lo,
            reply_interval.hi,
            {{w.link, static_cast<sim::MsgKind>(Tag::kStatus), w.bits}},
            /*subject=*/w.link);
      }
    }
    out.send(w.link, sim::wire::make_message(
                         static_cast<sim::MsgKind>(Tag::kResponse), wire_,
                         w.id, reply_interval.lo, reply_interval.hi, reply_d,
                         p_ | (done_flag << 32)));
  }
}

void CrashNode::receive(Round round, sim::InboxView inbox) {
  ++rounds_executed_;
  const obs::PhaseScope scope(telemetry_, self_, phase_of_subround(subround(round)),
                              round);
  switch (subround(round)) {
    case 1:
      announced_committee_.clear();
      for (const sim::Message& m : inbox) {
        if (m.kind == static_cast<sim::MsgKind>(Tag::kCommittee)) {
          announced_committee_.push_back(m.sender);
        }
      }
      break;
    case 2:
      if (elected_) {
        mailbox_.clear();
        for (const sim::Message& m : inbox) {
          if (m.kind != static_cast<sim::MsgKind>(Tag::kStatus)) continue;
          mailbox_.push_back(Status{
              m.w[0], Interval(m.w[1], m.w[2]),
              static_cast<std::uint32_t>(m.w[3]),
              static_cast<std::uint32_t>(m.w[4]), m.sender, m.bits});
        }
        // Figure 1 line 10: absorb the maximum p seen.
        for (const Status& s : mailbox_) p_ = std::max(p_, s.p);
      }
      break;
    case 3:
      node_action(round, inbox);
      mailbox_.clear();
      announced_committee_.clear();
      break;
    default:
      break;
  }
}

void CrashNode::node_action(Round round, sim::InboxView inbox) {
  // Figure 3. Decode the committee responses addressed to us.
  struct Response {
    Interval interval;
    std::uint32_t d;
    std::uint32_t p;
    NodeIndex link;      // responding committee member
    std::uint32_t bits;  // delivered wire size (provenance attribution)
  };
  std::vector<Response> responses;
  for (const sim::Message& m : inbox) {
    if (m.kind != static_cast<sim::MsgKind>(Tag::kResponse)) continue;
    if (m.w[0] != id_) continue;  // defensive: responses are per-recipient
    responses.push_back(Response{Interval(m.w[1], m.w[2]),
                                 static_cast<std::uint32_t>(m.w[3]),
                                 static_cast<std::uint32_t>(m.w[4]),
                                 m.sender, m.bits});
    if (params_.early_stopping && (m.w[4] >> 32) != 0 &&
        interval_.singleton()) {
      finished_early_ = true;
    }
  }

  if (responses.empty()) {
    // Whole committee crashed before responding (proof of Lemma 2.4):
    // double the election probability and maybe join the committee.
    ++p_;
    if (provenance_ != nullptr) {
      provenance_->note_event(round, self_,
                              obs::ProvEventKind::kConflictRetry,
                              static_cast<sim::MsgKind>(Tag::kResponse),
                              /*a=*/p_, /*b=*/0, {});
    }
    try_elect(round);
    return;
  }

  // Sort by d descending, then left endpoint ascending; adopt the first.
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) {
              if (a.d != b.d) return a.d > b.d;
              return a.interval.lo < b.interval.lo;
            });
  if (!interval_.singleton()) {
    d_ = responses.front().d;
    interval_ = responses.front().interval;
    if (provenance_ != nullptr) {
      const Response& adopted = responses.front();
      provenance_->note_event(
          round, self_,
          interval_.singleton() ? obs::ProvEventKind::kNameClaim
                                : obs::ProvEventKind::kNameProposal,
          static_cast<sim::MsgKind>(Tag::kResponse), interval_.lo,
          interval_.hi,
          {{adopted.link, static_cast<sim::MsgKind>(Tag::kResponse),
            adopted.bits}});
    }
  }
  std::uint32_t max_p = 0;
  for (const Response& r : responses) max_p = std::max(max_p, r.p);
  if (max_p > p_) {
    p_ = max_p;
    try_elect(round);
  }
}

void register_crash_phases(obs::Telemetry& telemetry) {
  telemetry.map_kind(static_cast<sim::MsgKind>(Tag::kCommittee),
                     obs::PhaseId::kCommitteeAnnounce);
  telemetry.map_kind(static_cast<sim::MsgKind>(Tag::kStatus),
                     obs::PhaseId::kStatusReport);
  telemetry.map_kind(static_cast<sim::MsgKind>(Tag::kResponse),
                     obs::PhaseId::kCommitteeResponse);
}

CrashRunResult run_crash_renaming(
    const SystemConfig& cfg, const CrashParams& params,
    std::unique_ptr<sim::CrashAdversary> adversary, sim::TraceSink* trace,
    obs::Telemetry* telemetry, obs::Journal* journal,
    sim::parallel::ShardPlan plan, obs::Progress* progress,
    obs::Provenance* provenance) {
  sim::Observers observers{.trace = trace,
                           .telemetry = telemetry,
                           .journal = journal,
                           .progress = progress,
                           .provenance = provenance,
                           .plan = plan};
  observers.begin("crash", cfg.n,
                  adversary != nullptr ? adversary->budget() : 0);
  if (observers.telemetry != nullptr) {
    register_crash_phases(*observers.telemetry);
  }
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<CrashNode>(
        v, cfg, params, observers.telemetry, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  const Round max_rounds =
      params.phase_multiplier * ceil_log2(cfg.n) * kSubrounds;
  CrashRunResult result;
  result.stats = engine.run(max_rounds);

  result.outcomes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const CrashNode&>(engine.node(v));
    NodeOutcome o;
    o.original_id = node.original_id();
    o.new_id = node.new_id();
    o.correct = engine.alive(v);
    if (o.correct) result.max_p = std::max(result.max_p, node.p());
    result.outcomes.push_back(o);
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::crash
