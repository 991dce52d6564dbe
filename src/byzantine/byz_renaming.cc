#include "byzantine/byz_renaming.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/check.h"
#include "sim/engine.h"

namespace renaming::byzantine {

using sim::wire::Kind;
using sim::wire::raw;

ByzNode::ByzNode(NodeIndex self, const SystemConfig& cfg,
                 const Directory& directory, ByzParams params,
                 consensus::ViewInterner& views, obs::Telemetry* telemetry,
                 obs::Provenance* provenance)
    : self_(self),
      n_(cfg.n),
      namespace_size_(cfg.namespace_size),
      wire_{cfg.n, cfg.namespace_size},
      id_(cfg.ids[self]),
      directory_(&directory),
      params_(params),
      beacon_(params.shared_seed),
      telemetry_(telemetry),
      views_(&views),
      provenance_(provenance),
      view_(consensus::empty_committee_view()) {}

obs::PhaseId ByzNode::phase_of(Stage stage) {
  switch (stage) {
    case Stage::kElect:         return obs::PhaseId::kCommitteeElection;
    case Stage::kIdReport:      return obs::PhaseId::kIdentityAggregation;
    case Stage::kValidator:     return consensus::Validator::kPhase;
    case Stage::kSameConsensus:
    case Stage::kDiffConsensus:
    case Stage::kBitConsensus:  return consensus::PhaseKing::kPhase;
    case Stage::kDiffExchange:  return obs::PhaseId::kDiffExchange;
    case Stage::kFullExchange:  return obs::PhaseId::kFullVectorExchange;
    case Stage::kDistribute:    return obs::PhaseId::kDistribution;
    case Stage::kDone:          return obs::PhaseId::kAwaitName;
  }
  return obs::PhaseId::kUnattributed;
}

bool ByzNode::done() const {
  return stage_ == Stage::kDone && new_id_.has_value();
}

void ByzNode::send(Round round, sim::Outbox& out) {
  const obs::PhaseScope scope(telemetry_, self_, phase_of(stage_), round);
  switch (stage_) {
    case Stage::kElect: {
      RENAMING_CHECK(round == 1, "election happens in the first round");
      (void)round;
      // Shared-randomness pool: my identity elects itself with prob p0.
      if (beacon_.coin(hashing::SharedRandomness::Domain::kCommitteeElection,
                       id_, params_.pool_probability(n_))) {
        member_ = std::make_unique<Member>(namespace_size_, beacon_);
        out.broadcast(
            sim::wire::make_message(Kind::kElect, wire_, id_));
        if (provenance_ != nullptr) {
          // Pool self-election: a = the identity that won the beacon coin.
          provenance_->note_event(round, self_,
                                  obs::ProvEventKind::kCommitteeVote,
                                  raw(Kind::kElect), id_, 1, {});
        }
      }
      break;
    }
    case Stage::kIdReport: {
      // One report for every member: built once, queued as one repeat.
      const sim::Message report =
          sim::wire::make_message(Kind::kIdReport, wire_, id_);
      for (const consensus::Member& m : view_->members()) {
        out.send(m.link, report);
      }
      break;
    }
    case Stage::kValidator:
      member_->validator->send(member_->step, out);
      break;
    case Stage::kSameConsensus:
    case Stage::kDiffConsensus:
    case Stage::kBitConsensus:
      member_->king->send(member_->step, out);
      break;
    case Stage::kFullExchange: {
      // Ablation A2: ship the entire identity vector to the committee —
      // the Omega(n log N)-bit pattern the fingerprint loop replaces.
      consensus::broadcast_to_committee(
          *view_, out,
          sim::wire::make_blob_message(Kind::kVector, wire_, out,
                                       member_->list.to_vector()));
      break;
    }
    case Stage::kDiffExchange:
      consensus::broadcast_to_committee(
          *view_, out,
          sim::wire::make_message(Kind::kDiff, wire_, member_->session,
                                  static_cast<std::uint64_t>(member_->diff)));
      break;
    case Stage::kDistribute:
      distribute(round, out);
      stage_ = Stage::kDone;
      break;
    case Stage::kDone:
      break;
  }
}

void ByzNode::receive(Round round, sim::InboxView inbox) {
  // The scope attributes this callback to the stage being processed; the
  // stage it may transition *to* takes over at the next callback.
  const obs::PhaseScope scope(telemetry_, self_, phase_of(stage_), round);
  // NEW messages can arrive in any round once Byzantine members exist;
  // the view-majority threshold makes early fakes harmless.
  consider_new_messages(round, inbox);

  switch (stage_) {
    case Stage::kElect: {
      std::vector<consensus::Member> members;
      for (const sim::Message& m : inbox) {
        if (m.kind != raw(Kind::kElect) || m.nwords < 1) continue;
        const OriginalId claimed = m.w[0];
        if (!directory_->verify(m.sender, claimed)) continue;  // forged id
        if (!beacon_.coin(
                hashing::SharedRandomness::Domain::kCommitteeElection,
                claimed, params_.pool_probability(n_))) {
          continue;  // not in the shared candidate pool
        }
        members.push_back({claimed, m.sender});
      }
      // One immutable view object per distinct member list: honest nodes
      // all derive the same list here, so the interner collapses their
      // views into one shared allocation per shard (O(log n) instead of
      // O(n log n) resident members at million-node scale).
      view_ = views_->intern(self_, std::move(members));
      if (member_ != nullptr) {
        member_->view_index = view_->index_of_link(self_);
        if (member_->view_index == consensus::CommitteeView::npos) {
          member_.reset();  // defensive; cannot happen with self-delivery
        }
      }
      stage_ = Stage::kIdReport;
      break;
    }
    case Stage::kIdReport: {
      if (member_ != nullptr) {
        load_reports(inbox);
        if (params_.use_fingerprints) {
          member_->pending.push_back(Interval(1, namespace_size_));
          start_iteration();
        } else {
          stage_ = Stage::kFullExchange;  // ablation A2
        }
      } else {
        stage_ = Stage::kDone;  // ordinary node: wait for NEW messages
      }
      break;
    }
    case Stage::kValidator: {
      Member& me = *member_;
      if (!me.validator->receive(me.step++, inbox)) break;
      me.agreed = me.validator->output();
      me.king = std::make_unique<consensus::PhaseKing>(
          *view_, me.view_index, ++me.session, Kind::kConsensus, wire_,
          me.validator->same());
      me.step = 0;
      stage_ = Stage::kSameConsensus;
      break;
    }
    case Stage::kSameConsensus: {
      Member& me = *member_;
      if (!me.king->receive(me.step++, inbox)) break;
      if (provenance_ != nullptr) {
        // Verdict on "do we all hold the same fingerprint": a = bit,
        // b = the phase-king session that produced it.
        provenance_->note_event(round, self_,
                                obs::ProvEventKind::kPhaseKingVerdict,
                                raw(Kind::kConsensus),
                                me.king->output() ? 1 : 0, me.session, {});
      }
      if (!me.king->output()) {
        split_current(round);
        start_iteration();
      } else {
        me.diff = !(me.mine.fingerprint == me.agreed.a &&
                    me.mine.count == me.agreed.b);
        ++me.session;  // tags the DIFF exchange
        me.step = 0;
        stage_ = Stage::kDiffExchange;
      }
      break;
    }
    case Stage::kDiffExchange: {
      // One round: count members reporting diff = 1 for this session.
      Member& me = *member_;
      std::vector<bool> heard(view_->size(), false);
      std::size_t ones = 0;
      for (const sim::Message& m : inbox) {
        if (m.kind != raw(Kind::kDiff) || m.nwords < 2) continue;
        if (m.w[0] != me.session) continue;
        const std::size_t idx = view_->index_of_link(m.sender);
        if (idx == consensus::CommitteeView::npos || heard[idx]) continue;
        heard[idx] = true;
        ones += (m.w[1] & 1);
      }
      // "Many" = t + 1: Byzantine members alone can never force it, and a
      // passed vote implies >= m - 2t correct preimage holders.
      const bool diff_prime =
          ones >= view_->max_tolerated() + 1 ? true : me.diff;
      me.king = std::make_unique<consensus::PhaseKing>(
          *view_, me.view_index, ++me.session, Kind::kConsensus, wire_,
          diff_prime);
      me.step = 0;
      stage_ = Stage::kDiffConsensus;
      break;
    }
    case Stage::kDiffConsensus: {
      Member& me = *member_;
      if (!me.king->receive(me.step++, inbox)) break;
      if (provenance_ != nullptr) {
        provenance_->note_event(round, self_,
                                obs::ProvEventKind::kPhaseKingVerdict,
                                raw(Kind::kConsensus),
                                me.king->output() ? 1 : 0, me.session, {});
      }
      if (me.king->output()) {
        split_current(round);
      } else {
        accept_current(me.agreed.b,
                       /*dirty=*/me.mine.fingerprint != me.agreed.a ||
                           me.mine.count != me.agreed.b);
      }
      start_iteration();
      break;
    }
    case Stage::kBitConsensus: {
      Member& me = *member_;
      if (!me.king->receive(me.step++, inbox)) break;
      const bool bit = me.king->output();
      if (provenance_ != nullptr) {
        // Singleton segment: a = agreed presence bit, b = the identity.
        provenance_->note_event(round, self_,
                                obs::ProvEventKind::kPhaseKingVerdict,
                                raw(Kind::kConsensus), bit ? 1 : 0,
                                me.current.lo, {});
      }
      me.list.set(me.current.lo, bit);
      accept_current(bit ? 1 : 0, /*dirty=*/false);
      start_iteration();
      break;
    }
    case Stage::kFullExchange: {
      // Witness filter: keep identities vouched by >= t+1 members (at
      // least one correct first-hand witness); all correct members see
      // the same broadcast blobs, so the result is consistent.
      Member& me = *member_;
      std::vector<bool> heard(view_->size(), false);
      std::map<std::uint64_t, std::size_t> counts;
      for (const sim::Message& m : inbox) {
        if (m.kind != raw(Kind::kVector) || !m.blob) continue;
        const std::size_t idx = view_->index_of_link(m.sender);
        if (idx == consensus::CommitteeView::npos || heard[idx]) continue;
        heard[idx] = true;
        for (std::uint64_t id : *m.blob) {
          if (id >= 1 && id <= namespace_size_) ++counts[id];
        }
      }
      std::vector<std::uint64_t> kept;
      for (const auto& [id, count] : counts) {  // ascending ids
        if (count >= view_->max_tolerated() + 1) kept.push_back(id);
      }
      me.list.assign_sorted(kept);
      if (provenance_ != nullptr) {
        // Ablation A2 merge: a = identities kept by the witness filter,
        // b = distinct identities seen across all vectors.
        provenance_->note_event(round, self_,
                                obs::ProvEventKind::kNameProposal,
                                raw(Kind::kVector), me.list.size(),
                                counts.size(), {});
      }
      me.iterations = 1;
      me.processed.assign(1, Processed{Interval(1, namespace_size_),
                                       me.list.size(), /*dirty=*/false});
      stage_ = Stage::kDistribute;
      break;
    }
    case Stage::kDistribute:
    case Stage::kDone:
      break;
  }
}

void ByzNode::start_iteration() {
  Member& me = *member_;
  if (me.pending.empty()) {
    stage_ = Stage::kDistribute;
    return;
  }
  ++me.iterations;
  me.current = me.pending.back();
  me.pending.pop_back();
  me.step = 0;
  if (me.current.singleton()) {
    const bool bit = me.list.summarize(me.current).count > 0;
    me.king = std::make_unique<consensus::PhaseKing>(
        *view_, me.view_index, ++me.session, Kind::kConsensus, wire_, bit);
    stage_ = Stage::kBitConsensus;
  } else {
    me.mine = me.list.summarize(me.current);
    me.validator = std::make_unique<consensus::Validator>(
        *view_, me.view_index, ++me.session, Kind::kValidator, wire_,
        consensus::ValidatorValue{me.mine.fingerprint, me.mine.count});
    stage_ = Stage::kValidator;
  }
}

void ByzNode::split_current(Round round) {
  Member& me = *member_;
  ++me.splits;
  if (provenance_ != nullptr) {
    // Segment retry: consensus rejected [a..b], push both halves.
    provenance_->note_event(round, self_, obs::ProvEventKind::kConflictRetry,
                            raw(Kind::kConsensus), me.current.lo,
                            me.current.hi, {});
  }
  me.pending.push_back(me.current.top());
  me.pending.push_back(me.current.bot());  // bot processed first (LIFO)
}

void ByzNode::accept_current(std::uint64_t agreed_count, bool dirty) {
  Member& me = *member_;
  if (dirty) ++me.dirties;
  // split_current() pushes top() under bot(), so the DFS finishes every
  // segment left to right.
  RENAMING_CHECK(
      me.processed.empty() || me.processed.back().segment.hi < me.current.lo,
      "J-hat must grow in ascending segment order");
  me.processed.push_back(Processed{me.current, agreed_count, dirty});
}

void ByzNode::load_reports(sim::InboxView inbox) {
  std::vector<Report>& reporters = member_->reporters;
  reporters.reserve(inbox.size());
  for (const sim::Message& m : inbox) {
    if (m.kind != raw(Kind::kIdReport) || m.nwords < 1) continue;
    const OriginalId claimed = m.w[0];
    if (claimed < 1 || claimed > namespace_size_) continue;
    if (!directory_->verify(m.sender, claimed)) continue;
    reporters.push_back({claimed, m.sender});
  }
  // One sort per round; the stable sort keeps the first report per id.
  std::stable_sort(
      reporters.begin(), reporters.end(),
      [](const Report& a, const Report& b) { return a.id < b.id; });
  reporters.erase(std::unique(reporters.begin(), reporters.end(),
                              [](const Report& a, const Report& b) {
                                return a.id == b.id;
                              }),
                  reporters.end());
  std::vector<std::uint64_t> ids;
  ids.reserve(reporters.size());
  for (const Report& r : reporters) ids.push_back(r.id);
  member_->list.assign_sorted(ids);
}

void ByzNode::distribute(Round round, sim::Outbox& out) {
  const Member& me = *member_;
  // Ranks follow from the *agreed* per-segment counts, so dirty segments
  // never skew positions; the member simply abstains inside them (sending
  // NEW(null) to the reporters it knows there).
  std::uint64_t before = 0;  // agreed ones before the current segment
  std::uint64_t ranks_sent = 0, nulls_sent = 0;
  // At most one NEW(rank) per held identity; the NEW(null)s coalesce.
  out.reserve(me.list.size());
  for (const Processed& proc : me.processed) {
    const bool usable =
        !proc.dirty && me.list.summarize(proc.segment).count == proc.count;
    auto report = std::lower_bound(
        me.reporters.begin(), me.reporters.end(), proc.segment.lo,
        [](const Report& r, std::uint64_t lo) { return r.id < lo; });
    if (usable) {
      std::uint64_t offset = 0;
      me.list.for_each_id_in(proc.segment, [&](std::uint64_t id) {
        while (report != me.reporters.end() && report->id < id) ++report;
        // An id nobody reported to me was added by singleton consensus:
        // address it through the directory instead.
        const NodeIndex link =
            report != me.reporters.end() && report->id == id
                ? report->link
                : directory_->link_of(id);
        ++offset;
        if (link == kNoNode) return;  // identity never joined: skip
        sim::wire::send(out, link, Kind::kNew, wire_, before + offset);
        ++ranks_sent;
      });
    } else {
      // NEW(null) to every reporter inside the dirty segment.
      const sim::Message null_new = sim::wire::make_message(
          Kind::kNew, wire_, std::uint64_t{0});
      for (; report != me.reporters.end() && report->id <= proc.segment.hi;
           ++report) {
        out.send(report->link, null_new);
        ++nulls_sent;
      }
    }
    before += proc.count;
  }
  if (provenance_ != nullptr) {
    // Rank distribution: a = NEW(rank) sent, b = NEW(null) abstentions.
    provenance_->note_event(round, self_, obs::ProvEventKind::kNameProposal,
                            raw(Kind::kNew), ranks_sent, nulls_sent, {});
  }
}

void ByzNode::consider_new_messages(Round round, sim::InboxView inbox) {
  if (new_id_.has_value() || view_->empty()) return;
  for (const sim::Message& m : inbox) {
    if (m.kind != raw(Kind::kNew) || m.nwords < 1) continue;
    if (view_->index_of_link(m.sender) == consensus::CommitteeView::npos) {
      continue;  // only committee members distribute
    }
    const auto at = std::lower_bound(
        new_votes_.begin(), new_votes_.end(), m.sender,
        [](const Vote& v, NodeIndex sender) { return v.sender < sender; });
    if (at != new_votes_.end() && at->sender == m.sender) continue;
    new_votes_.insert(at, Vote{m.sender, m.bits, m.w[0]});  // first wins
  }
  if (new_votes_.size() * 2 <= view_->size()) return;  // need > half the view

  // Majority among the non-null votes is the true rank: correct holders of
  // my segment number >= m - 2t >= t + 1 > |B|. Ties go to the smallest
  // value.
  std::vector<std::uint64_t> values;
  values.reserve(new_votes_.size());
  for (const Vote& v : new_votes_) {
    if (v.value >= 1 && v.value <= n_) values.push_back(v.value);
  }
  std::sort(values.begin(), values.end());
  std::size_t best_count = 0;
  for (std::size_t run = 0; run < values.size();) {
    std::size_t end = run;
    while (end < values.size() && values[end] == values[run]) ++end;
    if (end - run > best_count) {
      best_count = end - run;
      new_id_ = values[run];
    }
    run = end;
  }
  if (provenance_ != nullptr && new_id_.has_value()) {
    // The final claim: a = the adopted rank, b = supporting vote count.
    // Causes = the committee members whose NEW(rank) votes formed the
    // majority (note_event keeps the first kMaxProvCauses, counts the rest).
    std::vector<obs::Provenance::Cause> causes;
    for (const Vote& v : new_votes_) {
      if (v.value != *new_id_) continue;
      causes.push_back({v.sender, raw(Kind::kNew), v.bits});
    }
    provenance_->note_event(round, self_, obs::ProvEventKind::kNameClaim,
                            raw(Kind::kNew), *new_id_, causes.size(),
                            causes.data(), causes.size());
  }
  // A decided node reads no more votes: release their storage (clear()
  // would keep the capacity for the rest of the run).
  if (new_id_.has_value()) std::vector<Vote>().swap(new_votes_);
}

ByzRunResult run_byz_renaming(const SystemConfig& cfg, const ByzParams& params,
                              const std::vector<NodeIndex>& byzantine,
                              ByzStrategyFactory factory, Round max_rounds,
                              sim::Observers observers) {
  const Directory directory(cfg);

  const std::vector<bool> is_byz = faulty_mask(cfg.n, byzantine);

  observers.begin(params.use_fingerprints ? "byz" : "byz-full", cfg.n,
                  byzantine.size());
  obs::Telemetry* const tel = observers.telemetry;

  // Run-wide committee-view pool, one map per engine shard. Declared
  // before the nodes (and the engine that owns them) so the views it hands
  // out outlive every node holding one.
  consensus::ViewInterner views;

  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    if (is_byz[v] && factory != nullptr) {
      nodes.push_back(factory(v, cfg, directory, params));
    } else {
      nodes.push_back(std::make_unique<ByzNode>(v, cfg, directory, params,
                                                views, tel,
                                                observers.provenance));
    }
  }
  sim::Engine engine(std::move(nodes), nullptr, observers);
  views.bind_shards(&engine.shard_map());
  for (NodeIndex b : byzantine) engine.mark_byzantine(b);

  if (max_rounds == 0) {
    // Generous cap derived from Lemma 3.10: <= 4 f log N loop iterations,
    // each costing O(committee size) rounds of phase-king.
    const double m_exp = params.pool_probability(cfg.n) * cfg.n * 4 + 8;
    const std::uint64_t per_iter = 8 + 4 * (static_cast<std::uint64_t>(m_exp / 3) + 2);
    const std::uint64_t iters =
        8 + 8ull * (byzantine.size() + 2) * ceil_log2(cfg.namespace_size);
    max_rounds = static_cast<Round>(
        std::min<std::uint64_t>(4 + iters * per_iter + 4, 4'000'000));
  }

  ByzRunResult result;
  result.stats = engine.run(max_rounds);

  result.outcomes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    NodeOutcome o;
    o.original_id = cfg.ids[v];
    o.correct = !is_byz[v];
    if (const auto* node = dynamic_cast<const ByzNode*>(&engine.node(v))) {
      o.new_id = node->new_id();
      if (o.correct && node->elected()) {
        result.loop_iterations =
            std::max(result.loop_iterations, node->loop_iterations());
      }
      if (tel != nullptr && node->elected()) tel->label_node(v, "committee");
    }
    result.outcomes.push_back(o);
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::byzantine
