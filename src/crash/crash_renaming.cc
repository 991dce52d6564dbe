#include "crash/crash_renaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"

#include "sim/engine.h"

namespace renaming::crash {

using sim::wire::Kind;
using sim::wire::raw;

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

// Fenwick (binary indexed) tree of counts over the endpoints 1..size,
// indexed directly by endpoint value (no compression); committee_action's
// dominance count keeps one per call, over hi in [1, n].
class Fenwick {
 public:
  explicit Fenwick(std::size_t size) : tree_(size + 1, 0) {}

  void add(std::size_t i, std::uint32_t count) {  // i in [1, size]
    for (; i < tree_.size(); i += i & (~i + 1)) tree_[i] += count;
  }

  std::uint64_t prefix(std::size_t i) const {  // count of added values <= i
    std::uint64_t total = 0;
    for (; i > 0; i -= i & (~i + 1)) total += tree_[i];
    return total;
  }

 private:
  std::vector<std::uint32_t> tree_;
};

// One stable counting-sort pass: `to` receives `from`, a permutation of
// 0..M-1, ordered by key(i) in [1, n], in O(M + n). The histogram reads
// the keys in index order, so only the scatter follows `from`.
template <typename KeyOf>
void counting_pass(const std::vector<std::uint32_t>& from,
                   std::vector<std::uint32_t>& to, std::size_t n, KeyOf key) {
  std::vector<std::uint32_t> start(n + 2, 0);
  for (std::uint32_t i = 0; i < from.size(); ++i) ++start[key(i) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  for (const std::uint32_t i : from) to[start[key(i)]++] = i;
}

// Figure 3's order on round-3 responses: d descending, then lo ascending.
bool response_before(const sim::Message& a, const sim::Message& b) {
  const auto da = static_cast<std::uint32_t>(a.w[3]);
  const auto db = static_cast<std::uint32_t>(b.w[3]);
  if (da != db) return da > db;
  return a.w[1] < b.w[1];
}

}  // namespace

Round CrashParams::max_rounds(NodeIndex n) const {
  return phase_multiplier * ceil_log2(n) * kSubrounds;
}

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
                              raw(Kind::kCommittee),
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
        out.broadcast(sim::wire::make_message(Kind::kCommittee, wire_, id_));
      }
      break;
    case 2: {
      // Report status to every link that announced committee membership
      // (Figure 1 lines 6-7). Note this includes ourselves if elected. The
      // report is the same for every member: built once, it is queued as
      // one repeat entry.
      const sim::Message report = sim::wire::make_message(
          Kind::kStatus, wire_, id_, interval_.lo, interval_.hi, d_, p_);
      for (NodeIndex link : announced_committee_) out.send(link, report);
      break;
    }
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
  // run past a few thousand nodes. This evaluation is O(M + n) per call,
  // exact for every input (no laminarity assumption). Two stable counting
  // passes over [1, n] (by hi, then by descending lo) order the mailbox so
  // that one forward walk meets the equal-(lo, hi) groups in that order:
  //
  //   occupied(w) = #{u : I_u subset_of bot(I_w)}
  //                 = #{u : lo_u >= bot.lo and hi_u <= bot.hi}
  //                 -> every group walked so far has a larger lo, or w's
  //                    lo and a smaller hi, so with their hi values in a
  //                    Fenwick tree over hi in [1, n], prefix(bot.hi)
  //                    answers it (bot.lo == I_w.lo). It depends on I_w
  //                    only, so each group asks once, then adds its own hi.
  //   rank(w)     = #{u : I_u == I_w and id_u <= id_w}
  //                 -> w fits iff rank(w) <= cap = |bot| - occupied. With
  //                    x the (cap+1)-th smallest id of w's group, that is
  //                    id_w < x (equal ids tie), so one selection per group
  //                    decides it, and cap >= |group| lets every status in.
  //
  // The decisions land in `reply`, indexed by mailbox position: halving
  // statuses start at kTop and the walk moves those that fit to kBot.
  // With no undecided status (min_depth still at its initial max) there is
  // no kTop, so the walk cannot change a reply and is skipped.
  // The replies then go out in mailbox order.
  enum Reply : std::uint8_t { kEcho, kTop, kBot };
  const std::size_t total = mailbox_.size();
  std::vector<Reply> reply(total, kEcho);
  for (std::size_t i = 0; i < total; ++i) {
    const Status& u = mailbox_[i];
    if (!u.interval.singleton() && u.d == min_depth) reply[i] = kTop;
  }

  if (min_depth != std::numeric_limits<std::uint32_t>::max()) {
    std::vector<std::uint32_t> order(total);
    std::vector<std::uint32_t> by_hi(total);
    std::iota(order.begin(), order.end(), 0U);
    counting_pass(order, by_hi, n_,
                  [&](std::uint32_t i) { return mailbox_[i].interval.hi; });
    counting_pass(by_hi, order, n_, [&](std::uint32_t i) {
      return n_ + 1 - mailbox_[i].interval.lo;
    });

    Fenwick hi_count(n_);
    std::vector<OriginalId> ids;
    for (std::size_t group = 0, group_end; group < total; group = group_end) {
      const Interval shared = mailbox_[order[group]].interval;
      bool has_top = false;
      ids.clear();
      for (group_end = group; group_end < total &&
                              mailbox_[order[group_end]].interval == shared;
           ++group_end) {
        has_top = has_top || reply[order[group_end]] == kTop;
        ids.push_back(mailbox_[order[group_end]].id);
      }
      std::uint64_t cap = 0;  // bot slots left: |bot| - occupied, or 0
      if (has_top) {
        const Interval bot = shared.bot();
        cap = bot.size() - std::min(bot.size(), hi_count.prefix(bot.hi));
      }
      hi_count.add(shared.hi, static_cast<std::uint32_t>(ids.size()));
      if (cap == 0) continue;
      const bool all_fit = cap >= ids.size();
      OriginalId x = 0;  // the (cap+1)-th smallest id, unless all fit
      if (!all_fit) {
        const auto nth = ids.begin() + static_cast<std::ptrdiff_t>(cap);
        std::nth_element(ids.begin(), nth, ids.end());
        x = *nth;
      }
      for (std::size_t k = group; k < group_end; ++k) {
        Reply& r = reply[order[k]];
        if (r == kTop && (all_fit || mailbox_[order[k]].id < x)) r = kBot;
      }
    }
  }

  for (std::size_t i = 0; i < total; ++i) {
    const Status& w = mailbox_[i];
    Interval reply_interval = w.interval;
    std::uint32_t reply_d = w.d;
    if (reply[i] != kEcho) {
      reply_interval = reply[i] == kBot ? w.interval.bot() : w.interval.top();
      reply_d = w.d + 1;
      if (provenance_ != nullptr) {
        // One vote per halving reply: the member decided reply_interval
        // *for w.link*, because of w.link's status report.
        provenance_->note_event(
            round, self_, obs::ProvEventKind::kCommitteeVote,
            raw(Kind::kResponse), reply_interval.lo, reply_interval.hi,
            {{w.link, raw(Kind::kStatus), w.bits}},
            /*subject=*/w.link);
      }
    }
    sim::wire::send(out, w.link, Kind::kResponse, wire_, w.id,
                    reply_interval.lo, reply_interval.hi, reply_d,
                    p_ | (done_flag << 32));
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
        if (m.kind == raw(Kind::kCommittee)) {
          announced_committee_.push_back(m.sender);
        }
      }
      break;
    case 2:
      if (elected_) {
        mailbox_.clear();
        for (const sim::Message& m : inbox) {
          if (m.kind != raw(Kind::kStatus)) continue;
          // Every crash-model status is honest; committee_action's sweep
          // buckets lo and hi in [1, n] and indexes a tree by hi.
          RENAMING_CHECK(1 <= m.w[1] && m.w[1] <= m.w[2] && m.w[2] <= n_,
                         "status interval outside [1, n]");
          const Status& s = mailbox_.emplace_back(Status{
              m.w[0], Interval(m.w[1], m.w[2]),
              static_cast<std::uint32_t>(m.w[3]),
              static_cast<std::uint32_t>(m.w[4]), m.sender, m.bits});
          p_ = std::max(p_, s.p);  // Figure 1 line 10: absorb the max p
        }
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
  // Figure 3, in one pass over the responses addressed to us: keep the
  // first-ranked response by (d descending, lo ascending), the largest p
  // and the DONE flag. Responses with equal (d, lo) carry the same
  // interval, so whichever of them ranks first gives the same state.
  // The id check is defensive: responses are per-recipient.
  const auto mine = [this](const sim::Message& m) {
    return m.kind == raw(Kind::kResponse) && m.w[0] == id_;
  };
  const sim::Message* best = nullptr;
  std::uint32_t max_p = 0;
  bool done_flag = false;
  for (const sim::Message& m : inbox) {
    if (!mine(m)) continue;
    RENAMING_CHECK(m.w[1] <= m.w[2], "interval endpoints out of order");
    if (best == nullptr || response_before(m, *best)) best = &m;
    max_p = std::max(max_p, static_cast<std::uint32_t>(m.w[4]));
    done_flag = done_flag || (m.w[4] >> 32) != 0;
  }
  if (params_.early_stopping && done_flag && interval_.singleton()) {
    finished_early_ = true;
  }

  if (best == nullptr) {
    // Whole committee crashed before responding (proof of Lemma 2.4):
    // double the election probability and maybe join the committee.
    ++p_;
    if (provenance_ != nullptr) {
      provenance_->note_event(round, self_,
                              obs::ProvEventKind::kConflictRetry,
                              raw(Kind::kResponse),
                              /*a=*/p_, /*b=*/0, {});
    }
    try_elect(round);
    return;
  }

  // Adopt the first-ranked response.
  if (!interval_.singleton()) {
    d_ = static_cast<std::uint32_t>(best->w[3]);
    interval_ = Interval(best->w[1], best->w[2]);
    if (provenance_ != nullptr) {
      // The adopted reply's link names one of the tied first-ranked
      // responses: the one std::sort puts first, so the recorded link
      // (and the provenance pins) stay those of sort-and-adopt. Only a run
      // with a recorder attached pays for the sort.
      std::vector<const sim::Message*> ranked;
      for (const sim::Message& m : inbox) {
        if (mine(m)) ranked.push_back(&m);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const sim::Message* a, const sim::Message* b) {
                  return response_before(*a, *b);
                });
      const sim::Message& adopted = *ranked.front();
      provenance_->note_event(
          round, self_,
          interval_.singleton() ? obs::ProvEventKind::kNameClaim
                                : obs::ProvEventKind::kNameProposal,
          raw(Kind::kResponse), interval_.lo, interval_.hi,
          {{adopted.sender, raw(Kind::kResponse), adopted.bits}});
    }
  }
  if (max_p > p_) {
    p_ = max_p;
    try_elect(round);
  }
}

CrashRunResult run_crash_renaming(
    const SystemConfig& cfg, const CrashParams& params,
    std::unique_ptr<sim::CrashAdversary> adversary,
    sim::Observers observers) {
  observers.begin("crash", cfg.n,
                  adversary != nullptr ? adversary->budget() : 0);
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<CrashNode>(
        v, cfg, params, observers.telemetry, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  CrashRunResult result;
  result.stats = engine.run(params.max_rounds(cfg.n));

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
