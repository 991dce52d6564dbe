#include "byzantine/adaptive.h"

#include "sim/engine.h"

namespace renaming::byzantine {

AdaptiveRunResult run_adaptive_experiment(const SystemConfig& cfg,
                                          const ByzParams& params,
                                          std::uint64_t budget,
                                          Round max_rounds) {
  const Directory directory(cfg);
  AdaptiveController controller(budget);
  consensus::ViewInterner views;

  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<TurncoatNode>(v, cfg, directory, params,
                                                   views, controller));
  }
  sim::Engine engine(std::move(nodes));
  views.bind_shards(&engine.shard_map());

  if (max_rounds == 0) {
    // A wrecked run never terminates on its own; keep the cap modest so
    // the failure is observable quickly, but large enough for honest runs.
    max_rounds = 400 * protocol_log(cfg.n);
  }

  AdaptiveRunResult result;
  result.stats = engine.run(max_rounds);
  result.corrupted = controller.spent();

  std::vector<NodeOutcome> outcomes;
  std::vector<bool> turned(cfg.n, false);
  for (NodeIndex b : controller.corrupted()) turned[b] = true;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const TurncoatNode&>(engine.node(v));
    result.committee_size =
        std::max<std::uint64_t>(result.committee_size,
                                node.honest().view().size());
    outcomes.push_back(NodeOutcome{cfg.ids[v], node.honest().new_id(),
                                   /*correct=*/!turned[v]});
  }
  result.report = verify_renaming(outcomes, cfg.n);
  return result;
}

}  // namespace renaming::byzantine
