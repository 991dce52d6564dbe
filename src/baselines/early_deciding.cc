#include "baselines/early_deciding.h"

#include <algorithm>
#include <memory>

#include "sim/engine.h"
#include "sim/wire_schema.h"

namespace renaming::baselines {

using sim::wire::Kind;
using sim::wire::raw;

namespace {

class EarlyDecidingNode final : public sim::Node {
 public:
  EarlyDecidingNode(NodeIndex self, const SystemConfig& cfg,
                    obs::Provenance* provenance)
      : self_(self),
        id_(cfg.ids[self]),
        n_(cfg.n),
        wire_{cfg.n, cfg.namespace_size},
        provenance_(provenance),
        known_{cfg.ids[self]} {}

  void send(Round, sim::Outbox& out) override {
    // Decided nodes keep broadcasting: stragglers that missed a partial
    // broadcast converge to the decided set through these echoes.
    out.broadcast(
        sim::wire::make_blob_message(Kind::kEarlySet, wire_, out, known_));
  }

  void receive(Round round, sim::InboxView inbox) override {
    std::vector<NodeIndex> heard;
    const std::size_t before = known_.size();
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kEarlySet) || !m.blob) continue;
      heard.push_back(m.sender);
      known_.insert(known_.end(), m.blob->begin(), m.blob->end());
    }
    std::sort(known_.begin(), known_.end());
    known_.erase(std::unique(known_.begin(), known_.end()), known_.end());
    std::sort(heard.begin(), heard.end());
    heard.erase(std::unique(heard.begin(), heard.end()), heard.end());

    // Clean round: same senders as last round and nothing new learned —
    // every alive node's set is now a subset of ours and will converge to
    // it (see header), so the rank is final.
    if (!decided_ && round >= 2 && heard == heard_prev_ &&
        known_.size() == before) {
      decided_ = true;
      decision_round_ = round;
      if (provenance_ != nullptr) {
        // Clean-round decision: a = the final rank, b = |known set|.
        const auto it = std::lower_bound(known_.begin(), known_.end(), id_);
        provenance_->note_event(
            round, self_, obs::ProvEventKind::kNameClaim,
            raw(Kind::kEarlySet), static_cast<NewId>(it - known_.begin()) + 1,
            known_.size(), {});
      }
    } else if (provenance_ != nullptr && !decided_ && round >= 2 &&
               known_.size() != before) {
      // Dirty round: the identity set grew, the decision is postponed.
      provenance_->note_event(round, self_,
                              obs::ProvEventKind::kConflictRetry,
                              raw(Kind::kEarlySet), known_.size() - before,
                              known_.size(), {});
    }
    heard_prev_ = std::move(heard);
  }

  bool done() const override { return decided_; }

  std::optional<NewId> new_id() const {
    if (!decided_) return std::nullopt;
    const auto it = std::lower_bound(known_.begin(), known_.end(), id_);
    return static_cast<NewId>(it - known_.begin()) + 1;
  }
  OriginalId original_id() const { return id_; }
  Round decision_round() const { return decision_round_; }

 private:
  NodeIndex self_;
  OriginalId id_;
  NodeIndex n_;
  sim::wire::WireContext wire_;  ///< message widths (sim/wire_schema.h)
  obs::Provenance* provenance_;
  std::vector<std::uint64_t> known_;  // sorted cumulative identity set
  std::vector<NodeIndex> heard_prev_;
  bool decided_ = false;
  Round decision_round_ = 0;
};

}  // namespace

EarlyDecidingRunResult run_early_deciding_renaming(
    const SystemConfig& cfg, std::unique_ptr<sim::CrashAdversary> adversary,
    sim::Observers observers) {
  observers.begin("early", cfg.n,
                  adversary != nullptr ? adversary->budget() : 0);
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(
        std::make_unique<EarlyDecidingNode>(v, cfg, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  EarlyDecidingRunResult result;
  // Every dirty round consumes a crash; 2n + 4 is a safe deterministic cap.
  result.stats = engine.run(2 * cfg.n + 4);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node =
        dynamic_cast<const EarlyDecidingNode&>(engine.node(v));
    result.outcomes.push_back(
        NodeOutcome{node.original_id(), node.new_id(), engine.alive(v)});
    if (engine.alive(v)) {
      result.max_decision_round =
          std::max(result.max_decision_round, node.decision_round());
    }
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::baselines
