#include "baselines/claiming.h"

#include <algorithm>

#include "common/math.h"
#include "common/prng.h"
#include "sim/wire_schema.h"
#include "sim/engine.h"

namespace renaming::baselines {

using sim::wire::Kind;
using sim::wire::raw;

namespace {

class ClaimingNode final : public sim::Node {
 public:
  ClaimingNode(NodeIndex self, const SystemConfig& cfg,
               obs::Provenance* provenance)
      : self_(self),
        id_(cfg.ids[self]),
        n_(cfg.n),
        claim_bits_(
            sim::wire::wire_bits(Kind::kClaim, {cfg.n, cfg.namespace_size})),
        owned_bits_(
            sim::wire::wire_bits(Kind::kOwned, {cfg.n, cfg.namespace_size})),
        rng_(SplitMix64(cfg.seed ^ 0xC1A141ULL).next() + self),
        provenance_(provenance) {}

  void send(Round, sim::Outbox& out) override {
    if (slot_ != 0) {
      // Heartbeat: keeps the slot out of everyone's free pool.
      out.broadcast(
          sim::make_message(raw(Kind::kOwned), owned_bits_, id_, slot_));
      return;
    }
    // Claim a uniformly random slot believed free.
    std::vector<std::uint64_t> free_slots;
    free_slots.reserve(n_);
    for (std::uint64_t s = 1; s <= n_; ++s) {
      if (!taken_now_[s]) free_slots.push_back(s);
    }
    if (free_slots.empty()) return;  // transient; pool refills by recycling
    claimed_ = free_slots[rng_.below(free_slots.size())];
    out.broadcast(
        sim::make_message(raw(Kind::kClaim), claim_bits_, id_, claimed_));
  }

  void receive(Round round, sim::InboxView inbox) override {
    last_round_ = round;
    // Rebuild this round's taken-set from live heartbeats, then resolve
    // claims: smallest original identity wins each slot.
    std::vector<bool> taken(n_ + 1, false);
    std::vector<OriginalId> best(n_ + 1, 0);  // winning claimant per slot
    // The delivery that defeats my claim, for provenance attribution.
    obs::Provenance::Cause blocker{};
    bool have_blocker = false;
    for (const sim::Message& m : inbox) {
      if (m.nwords < 2) continue;
      const std::uint64_t slot = m.w[1];
      if (slot < 1 || slot > n_) continue;
      if (m.kind == raw(Kind::kOwned)) {
        taken[slot] = true;
        if (provenance_ != nullptr && slot == claimed_ && !have_blocker) {
          blocker = {m.sender, raw(Kind::kOwned), m.bits};
          have_blocker = true;
        }
      } else if (m.kind == raw(Kind::kClaim)) {
        if (best[slot] == 0 || m.w[0] < best[slot]) {
          best[slot] = m.w[0];
          if (provenance_ != nullptr && slot == claimed_ && m.w[0] < id_) {
            blocker = {m.sender, raw(Kind::kClaim), m.bits};
            have_blocker = true;
          }
        }
      }
    }
    if (slot_ == 0 && claimed_ != 0 && !taken[claimed_] &&
        best[claimed_] == id_) {
      slot_ = claimed_;  // won the slot
      if (provenance_ != nullptr) {
        // a = the slot won, b = the round of the winning claim.
        provenance_->note_event(round, self_, obs::ProvEventKind::kNameClaim,
                                raw(Kind::kClaim), slot_, round, {});
      }
    } else if (provenance_ != nullptr && slot_ == 0 && claimed_ != 0) {
      // Lost the slot: a = the contested slot, b = the winning identity;
      // the cause is the heartbeat or stronger claim that defeated mine.
      provenance_->note_event(round, self_, obs::ProvEventKind::kConflictRetry,
                              raw(Kind::kOwned), claimed_, best[claimed_],
                              &blocker, have_blocker ? 1 : 0);
    }
    claimed_ = 0;
    // Slots won by others this round count as taken for the next claims;
    // slots whose "winner" crashed mid-broadcast resurface once their
    // heartbeat fails to appear.
    taken_now_.assign(n_ + 1, false);
    for (std::uint64_t s = 1; s <= n_; ++s) {
      taken_now_[s] = taken[s] || best[s] != 0;
    }
  }

  bool done() const override { return slot_ != 0; }
  std::optional<NewId> new_id() const {
    return slot_ == 0 ? std::nullopt : std::optional<NewId>(slot_);
  }
  OriginalId original_id() const { return id_; }

 private:
  NodeIndex self_;
  OriginalId id_;
  NodeIndex n_;
  sim::WireBits claim_bits_;
  sim::WireBits owned_bits_;
  Xoshiro256 rng_;
  obs::Provenance* provenance_ = nullptr;
  std::uint64_t claimed_ = 0;  // slot claimed this round (0 = none)
  std::uint64_t slot_ = 0;     // owned slot (0 = undecided)
  std::vector<bool> taken_now_ = std::vector<bool>(n_ + 1, false);
  Round last_round_ = 0;
};

}  // namespace

ClaimingRunResult run_claiming_renaming(
    const SystemConfig& cfg, std::unique_ptr<sim::CrashAdversary> adversary,
    sim::Observers observers) {
  observers.begin("claiming", cfg.n,
                  adversary != nullptr ? adversary->budget() : 0);
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(
        std::make_unique<ClaimingNode>(v, cfg, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  ClaimingRunResult result;
  // Whp O(log n) rounds; crashes can only free slots. Generous cap.
  result.stats = engine.run(20 * protocol_log(cfg.n) + 20);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const ClaimingNode&>(engine.node(v));
    result.outcomes.push_back(
        NodeOutcome{node.original_id(), node.new_id(), engine.alive(v)});
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::baselines
