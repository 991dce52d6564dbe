// The synchronous message-passing engine.
//
// Executes the model of Section 1: n nodes on a complete network proceed in
// synchronous rounds; each round every alive node queues messages on its n
// links, the adaptive crash adversary may fell nodes (possibly mid-send),
// and surviving messages are delivered within the same round. The engine
// also enforces message authentication: a message whose claimed origin
// differs from its true origin never reaches its destination (the attempt
// is counted in the run statistics).
//
// Only nodes with traffic cost anything (docs/PERFORMANCE.md §10): per-node
// outboxes are allocated on first send and recycled when their node goes
// quiet, the round's work list is maintained by incremental sorted merges,
// and the inbox resets lazily (sim/inbox.h). Setup holds per-node
// bytes (flags and slot indices), never per-node objects, so a round where
// only an O(log n) committee is active costs O(active + messages).
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/adversary.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/parallel/shard.h"
#include "sim/stats.h"

namespace renaming::sim {

class Engine {
 public:
  /// Takes ownership of the nodes (index i is node i) and, optionally, a
  /// crash adversary (defaults to no failures) and the run's observers
  /// (sim/observers.h). Observers are purely observational: stats, traces,
  /// journal bytes and outcomes are byte-identical with and without them.
  ///
  /// Send and receive callbacks run through one fan-out over K contiguous
  /// shards of the round's node list; the bundle's shard plan
  /// (docs/PERFORMANCE.md §9) sets K and the worker pool, and a serial run
  /// is K = 1, the same shard body inline on the calling thread. Every
  /// order-sensitive sweep (adversary, delivery, stats, traces, journal)
  /// stays on the calling thread. What node code records inside a callback
  /// (telemetry spans, provenance events, interned views) goes to its
  /// shard's slot (parallel::ShardSlots), folded in shard order 0..K-1
  /// after the join, so output is byte-identical at any thread/shard count
  /// and no observer changes K. Default bundle = K = 1, unobserved.
  Engine(std::vector<std::unique_ptr<Node>> nodes,
         std::unique_ptr<CrashAdversary> adversary = nullptr,
         Observers observers = {});

  /// Marks node `v` as Byzantine for accounting purposes (its Node
  /// implementation is expected to be an adversarial strategy). Byzantine
  /// nodes never "crash"; they run for the whole execution. An attached
  /// provenance records them as faulty when the run begins.
  void mark_byzantine(NodeIndex v);

  /// Runs until every correct (non-Byzantine, alive) node reports done() or
  /// `max_rounds` elapses. Returns the accumulated statistics.
  RunStats run(Round max_rounds);

  NodeIndex size() const { return static_cast<NodeIndex>(nodes_.size()); }
  bool alive(NodeIndex v) const { return alive_[v]; }
  bool byzantine(NodeIndex v) const { return byzantine_[v]; }
  Node& node(NodeIndex v) { return *nodes_[v]; }
  const Node& node(NodeIndex v) const { return *nodes_[v]; }
  const RunStats& stats() const { return stats_; }
  /// Which shard runs a node's callback: the map a recorder that node code
  /// writes binds to (parallel::ShardSlots::bind). Its capacity is fixed at
  /// construction.
  const parallel::ShardMap& shard_map() const { return shards_; }

 private:
  // Aborts (RENAMING_CHECK) if the per-round ledgers disagree with the run
  // totals or the adversary overspent its budget; called at the end of run().
  void check_stats_consistent() const;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<CrashAdversary> adversary_;
  std::vector<bool> alive_;
  std::vector<bool> byzantine_;
  RunStats stats_;
  Observers observers_;
  parallel::ShardMap shards_;
};

}  // namespace renaming::sim
