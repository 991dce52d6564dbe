#include "baselines/obg_byzantine.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include "common/math.h"
#include "common/prng.h"
#include "core/directory.h"
#include "core/interval.h"
#include "sim/engine.h"
#include "sim/wire_schema.h"

namespace renaming::baselines {

using sim::wire::Kind;
using sim::wire::raw;

namespace {

class ObgNode : public sim::Node {
 public:
  ObgNode(NodeIndex self, const SystemConfig& cfg, const Directory& directory,
          obs::Provenance* provenance = nullptr)
      : self_(self),
        id_(cfg.ids[self]),
        n_(cfg.n),
        t_((cfg.n - 1) / 3),
        wire_{cfg.n, cfg.namespace_size},
        halving_phases_(ceil_log2(cfg.n)),
        directory_(&directory),
        provenance_(provenance) {}

  void send(Round round, sim::Outbox& out) override {
    if (round == 1) {
      out.broadcast(sim::wire::make_message(Kind::kObgAnnounce, wire_, id_));
    } else if (round == 2 || round == 3) {
      // Full candidate vector: the Omega(n log N)-bit message of [34].
      out.broadcast(
          sim::wire::make_blob_message(Kind::kObgVector, wire_, out,
                                       candidates_));
    } else {
      out.broadcast(sim::wire::make_blob_message(Kind::kObgHalving, wire_, out,
                                                 candidates_, id_, interval_.lo,
                                                 interval_.hi));
    }
  }

  void receive(Round round, sim::InboxView inbox) override {
    last_round_ = round;
    if (round == 1) {
      for (const sim::Message& m : inbox) {
        if (m.kind != raw(Kind::kObgAnnounce) || m.nwords < 1) continue;
        if (!directory_->verify(m.sender, m.w[0])) continue;
        candidates_.push_back(m.w[0]);
      }
      normalize(candidates_);
    } else if (round == 2) {
      // Witness filter: keep identities vouched by >= t+1 vectors (at
      // least one correct first-hand witness).
      candidates_ = filter_by_count(inbox, t_ + 1);
      note_filter(round, t_ + 1);
    } else if (round == 3) {
      // Majority filter: keep identities in more than half the vectors.
      candidates_ = filter_by_count(inbox, n_ / 2 + 1);
      interval_ = Interval(1, std::max<std::uint64_t>(candidates_.size(), 1));
      note_filter(round, n_ / 2 + 1);
    } else {
      halve(round, inbox);
    }
  }

  bool done() const override { return last_round_ >= 3 + halving_phases_; }

  std::optional<NewId> new_id() const {
    if (last_round_ >= 3 + halving_phases_ && interval_.singleton() &&
        !candidates_.empty()) {
      return interval_.lo;
    }
    return std::nullopt;
  }
  OriginalId original_id() const { return id_; }

 protected:
  static void normalize(std::vector<OriginalId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  std::vector<OriginalId> filter_by_count(sim::InboxView inbox,
                                          std::size_t threshold) const {
    // Ordered map: iteration below builds the kept vector in id order.
    std::map<OriginalId, std::size_t> counts;
    std::vector<bool> heard(n_, false);
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kObgVector) || !m.blob) continue;
      if (heard[m.sender]) continue;  // one vector per sender
      heard[m.sender] = true;
      for (std::uint64_t id : *m.blob) ++counts[id];
    }
    std::vector<OriginalId> kept;
    for (const auto& [id, count] : counts) {
      if (count >= threshold) kept.push_back(id);  // ascending: map order
    }
    return kept;
  }

  void note_filter(Round round, std::size_t threshold) {
    if (provenance_ == nullptr) return;
    // Vector filter: a = surviving candidates, b = the vote threshold.
    provenance_->note_event(round, self_, obs::ProvEventKind::kNameProposal,
                            raw(Kind::kObgVector), candidates_.size(),
                            threshold, {});
  }

  void halve(Round round, sim::InboxView inbox) {
    if (interval_.singleton()) return;
    const Interval bot = interval_.bot();
    std::uint64_t rank = 0, occupied = 0;
    obs::Provenance::Cause causes[obs::kMaxProvCauses];
    std::size_t cause_count = 0;
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kObgHalving) || m.nwords < 3) continue;
      if (!directory_->verify(m.sender, m.w[0])) continue;
      const Interval other(std::min(m.w[1], m.w[2]),
                           std::max(m.w[1], m.w[2]));
      const bool ranks_me = other == interval_ && m.w[0] <= id_;
      if (ranks_me) ++rank;
      if (other.subset_of(bot)) ++occupied;
      if (provenance_ != nullptr && ranks_me &&
          cause_count < obs::kMaxProvCauses) {
        causes[cause_count++] = {m.sender, raw(Kind::kObgHalving), m.bits};
      }
    }
    interval_ = (occupied + rank <= bot.size()) ? bot : interval_.top();
    if (provenance_ != nullptr) {
      // Halving step: a/b = the adopted half; a claim once singleton.
      provenance_->note_event(round, self_,
                              interval_.singleton()
                                  ? obs::ProvEventKind::kNameClaim
                                  : obs::ProvEventKind::kNameProposal,
                              raw(Kind::kObgHalving), interval_.lo,
                              interval_.hi, causes,
                              cause_count);
    }
  }

  NodeIndex self_;
  OriginalId id_;
  NodeIndex n_;
  std::uint32_t t_;
  sim::wire::WireContext wire_;  ///< message widths (sim/wire_schema.h)
  Round halving_phases_;
  Round last_round_ = 0;
  const Directory* directory_;
  obs::Provenance* provenance_;
  std::vector<OriginalId> candidates_;
  Interval interval_{1, 1};
};

/// Byzantine variants reuse the honest machinery with targeted deviations.
class ObgByzNode final : public ObgNode {
 public:
  ObgByzNode(NodeIndex self, const SystemConfig& cfg,
             const Directory& directory, ObgByzBehaviour behaviour,
             std::uint64_t seed)
      : ObgNode(self, cfg, directory),
        behaviour_(behaviour),
        rng_(seed ^ (0x0B6'0B6ULL + self)) {}

  void send(Round round, sim::Outbox& out) override {
    if (behaviour_ == ObgByzBehaviour::kSilent) return;
    if (behaviour_ == ObgByzBehaviour::kSplitAnnounce && round == 1) {
      // Announce to the even half only: the view-splitting attack.
      const sim::Message announce =
          sim::wire::make_message(Kind::kObgAnnounce, wire_, id_);
      for (NodeIndex d = 0; d < n_; d += 2) out.send(d, announce);
      return;
    }
    if (behaviour_ == ObgByzBehaviour::kForgeIds &&
        (round == 2 || round == 3)) {
      // Pad the vector with phantom identities.
      std::vector<OriginalId> padded = candidates_;
      for (int k = 0; k < 8; ++k) padded.push_back(1 + rng_.below(1u << 20));
      normalize(padded);
      out.broadcast(
          sim::wire::make_blob_message(Kind::kObgVector, wire_, out,
                                       std::move(padded)));
      return;
    }
    ObgNode::send(round, out);
  }

 private:
  ObgByzBehaviour behaviour_;
  Xoshiro256 rng_;
};

// Closed-form accounting of the Byzantine-free execution (PERFORMANCE.md
// §10), the exact mirror of closed_form_cht in cht_crash.cc. With no
// Byzantine nodes every identity is vouched by all n vectors, so both
// filters keep everything, every round is n broadcasts, and the halving
// phase is the same deterministic binary search: node v lands on the rank
// of its identity. Round schedule: 1 ANNOUNCE round, 2 VECTOR rounds, then
// ceil_log2(n) HALVING rounds, each vector/halving payload carrying all n
// identities. Exactness is pinned by tests/closed_form_test.cc.
ObgRunResult closed_form_obg(const SystemConfig& cfg,
                             const sim::Observers& observers) {
  const NodeIndex n = cfg.n;
  const sim::wire::WireContext ctx{cfg.n, cfg.namespace_size};
  const Round rounds = 3 + std::max<Round>(ceil_log2(cfg.n), 1);
  const std::uint64_t copies = static_cast<std::uint64_t>(n) * n;

  // The bulk OBG_VECTOR/OBG_HALVING payloads carry n identities, so total bits
  // grow as ~n^3 log N — past roughly n = 2^18 that exceeds the 64-bit
  // accumulators of sim/stats.h. Refuse loudly instead of wrapping (the
  // widest per-round charge bounds them all).
  RENAMING_CHECK(sim::wire::wire_bits(Kind::kObgVector, ctx, n) <=
                     UINT64_MAX / copies / rounds,
                 "closed-form total bits overflow 64-bit accounting");

  ObgRunResult result;
  result.closed_form = true;
  obs::Telemetry* const tel = observers.telemetry;
  observers.on_run_begin(n, /*shards=*/nullptr);
  for (Round round = 1; round <= rounds; ++round) {
    const Kind kind = round == 1   ? Kind::kObgAnnounce
                      : round <= 3 ? Kind::kObgVector
                                   : Kind::kObgHalving;
    const sim::WireBits bits = round == 1
                                   ? sim::wire::wire_bits(kind, ctx)
                                   : sim::wire::wire_bits(kind, ctx, n);
    result.stats.rounds = round;
    result.stats.per_round.push_back({});
    observers.on_round_begin(round);
    if (tel != nullptr) {
      tel->note_active_senders(n);
      tel->note_messages(raw(kind), copies, bits);
    }
    result.stats.note_messages(copies, bits);
    if (tel != nullptr) tel->note_inbox(0, n, n);  // n share one inbox
    // Every node sends every round; no outbox table exists to occupy.
    observers.on_round_end(round, result.stats, /*active_senders=*/n,
                           /*outbox_live=*/0);
  }
  observers.on_run_end(rounds);

  std::vector<OriginalId> sorted = cfg.ids;
  std::sort(sorted.begin(), sorted.end());
  result.outcomes.reserve(n);
  for (NodeIndex v = 0; v < n; ++v) {
    const NewId rank = 1 + static_cast<NewId>(
        std::lower_bound(sorted.begin(), sorted.end(), cfg.ids[v]) -
        sorted.begin());
    result.outcomes.push_back(NodeOutcome{cfg.ids[v], rank, true});
  }
  result.report = verify_renaming(result.outcomes, n);
  return result;
}

}  // namespace

ObgRunResult run_obg_renaming(const SystemConfig& cfg,
                              const std::vector<NodeIndex>& byzantine,
                              ObgByzBehaviour behaviour,
                              NodeIndex closed_form_cutoff,
                              sim::Observers observers) {
  observers.begin("obg", cfg.n, byzantine.size());
  // No Byzantine nodes means a fully deterministic all-to-all exchange the
  // closed form reproduces exactly; any adversary, a trace or a journal
  // (records and fingerprints need real deliveries), a provenance recorder
  // (causal events need real decisions), or n < 2 (round-count edge cases)
  // simulates.
  if (closed_form_cutoff > 0 && cfg.n >= closed_form_cutoff && cfg.n >= 2 &&
      byzantine.empty() && !observers.needs_simulation()) {
    return closed_form_obg(cfg, observers);
  }
  const Directory directory(cfg);
  const std::vector<bool> is_byz = faulty_mask(cfg.n, byzantine);

  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    if (is_byz[v]) {
      nodes.push_back(std::make_unique<ObgByzNode>(v, cfg, directory,
                                                   behaviour, cfg.seed));
    } else {
      nodes.push_back(std::make_unique<ObgNode>(v, cfg, directory,
                                                observers.provenance));
    }
  }
  sim::Engine engine(std::move(nodes), nullptr, observers);
  for (NodeIndex b : byzantine) engine.mark_byzantine(b);

  ObgRunResult result;
  result.stats = engine.run(3 + std::max<Round>(ceil_log2(cfg.n), 1));
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const ObgNode&>(engine.node(v));
    result.outcomes.push_back(
        NodeOutcome{node.original_id(), node.new_id(), !is_byz[v]});
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::baselines
