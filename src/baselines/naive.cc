#include "baselines/naive.h"

#include <algorithm>

#include "sim/engine.h"
#include "sim/wire_schema.h"

namespace renaming::baselines {

using sim::wire::Kind;
using sim::wire::raw;

namespace {

class NaiveNode final : public sim::Node {
 public:
  NaiveNode(NodeIndex self, const SystemConfig& cfg,
            obs::Provenance* provenance)
      : self_(self),
        id_(cfg.ids[self]),
        bits_(sim::wire::wire_bits(Kind::kNaiveId,
                                   {cfg.n, cfg.namespace_size})),
        provenance_(provenance) {}

  void send(Round, sim::Outbox& out) override {
    out.broadcast(sim::make_message(raw(Kind::kNaiveId), bits_, id_));
  }

  void receive(Round round, sim::InboxView inbox) override {
    std::vector<OriginalId> seen;
    obs::Provenance::Cause causes[obs::kMaxProvCauses];
    std::size_t cause_count = 0;
    for (const sim::Message& m : inbox) {
      if (m.kind == raw(Kind::kNaiveId) && m.nwords >= 1) {
        seen.push_back(m.w[0]);
        if (provenance_ != nullptr && cause_count < obs::kMaxProvCauses) {
          causes[cause_count++] = {m.sender, raw(Kind::kNaiveId), m.bits};
        }
      }
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    const auto it = std::lower_bound(seen.begin(), seen.end(), id_);
    new_id_ = static_cast<NewId>(it - seen.begin()) + 1;
    decided_ = true;
    if (provenance_ != nullptr) {
      // a = the claimed rank, b = distinct identities in view.
      provenance_->note_event(round, self_, obs::ProvEventKind::kNameClaim,
                              raw(Kind::kNaiveId), new_id_, seen.size(),
                              causes, cause_count);
    }
  }

  bool done() const override { return decided_; }
  std::optional<NewId> new_id() const {
    return decided_ ? std::optional<NewId>(new_id_) : std::nullopt;
  }
  OriginalId original_id() const { return id_; }

 private:
  NodeIndex self_;
  OriginalId id_;
  sim::WireBits bits_;
  obs::Provenance* provenance_;
  NewId new_id_ = kNoNewId;
  bool decided_ = false;
};

}  // namespace

NaiveRunResult run_naive_renaming(const SystemConfig& cfg,
                                  std::unique_ptr<sim::CrashAdversary> adversary,
                                  sim::Observers observers) {
  observers.begin("naive", cfg.n,
                  adversary != nullptr ? adversary->budget() : 0);
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<NaiveNode>(v, cfg, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  NaiveRunResult result;
  result.stats = engine.run(1);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const NaiveNode&>(engine.node(v));
    result.outcomes.push_back(
        NodeOutcome{node.original_id(), node.new_id(), engine.alive(v)});
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::baselines
