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
// and delivery scratch shrinks by filtering in place. Setup holds per-node
// bytes (flags and slot indices), never per-node objects, so a round where
// only an O(log n) committee is active costs O(active + messages).
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/node.h"
#include "sim/parallel/plan.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace renaming::sim {

class Engine {
 public:
  /// Takes ownership of the nodes (index i is node i) and, optionally, a
  /// crash adversary (defaults to no failures).
  Engine(std::vector<std::unique_ptr<Node>> nodes,
         std::unique_ptr<CrashAdversary> adversary = nullptr);

  /// Attaches a non-owning trace sink receiving structured events during
  /// run(); pass nullptr to detach.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Attaches a non-owning telemetry object (obs/telemetry.h): every
  /// message the engine accounts is also charged to the telemetry's
  /// phase ledgers, and crashes/spoofs/rounds are recorded. Purely
  /// observational — stats, traces and outcomes are byte-identical with
  /// and without it. Ignored when built with RENAMING_NO_TELEMETRY.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Attaches a non-owning flight-recorder journal (obs/journal.h): per
  /// round the engine feeds it a rolling fingerprint of every logical
  /// delivery plus per-kind counts, the active-sender count and the
  /// adversary's crash/spoof events. Purely observational and fully
  /// deterministic; unlike telemetry it is NOT compiled out under
  /// RENAMING_NO_TELEMETRY, because journal bytes are pinned identical
  /// across telemetry configs.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  /// Attaches a non-owning live-run heartbeat (obs/progress.h): at each
  /// round end the engine offers it the cumulative counters, the round's
  /// active-set size and the outbox-table occupancy; the heartbeat decides
  /// whether to sample/stream per its cadence. Purely observational and —
  /// unlike a live telemetry — engine-mediated, so it never forces the
  /// shard-parallel callbacks serial. Ignored under RENAMING_NO_TELEMETRY.
  void set_progress(obs::Progress* progress) { progress_ = progress; }

  /// Attaches a non-owning decision-provenance recorder (obs/provenance.h):
  /// the engine feeds it the causal boundary events only it can see —
  /// spoof rejections (with the forged kind's wire-schema bits and copy
  /// count) and observed crashes — while protocol nodes record their
  /// decision events directly. Deterministic like the journal (bytes are a
  /// pure function of the seeded run, identical across thread counts) but
  /// folded like telemetry: ignored under
  /// RENAMING_NO_TELEMETRY. A live recorder forces the shard callbacks
  /// serial, exactly as a live telemetry does, so recording order is
  /// pinned by construction.
  void set_provenance(obs::Provenance* provenance) {
    provenance_ = provenance;
  }

  /// Attaches a shard-parallel execution plan (sim/parallel/, see
  /// docs/PERFORMANCE.md §9): the send and receive phases fan their
  /// per-node callbacks across K contiguous shards of the round's node
  /// list on the plan's worker pool, while every order-sensitive sweep
  /// (adversary, delivery, stats, traces, journal) stays on the calling
  /// thread, and per-shard bookkeeping merges in fixed shard order
  /// 0..K-1. Outcomes, RunStats, golden trace bytes, journal fingerprints
  /// and telemetry ledgers are byte-identical at any thread/shard count.
  /// A live telemetry (kTelemetryEnabled and set_telemetry attached)
  /// forces the callbacks serial: PhaseScope spans inside node code are
  /// the one observer not mediated by the engine. Default plan = serial.
  void set_parallel(const parallel::ShardPlan& plan) { plan_ = plan; }

  /// Marks node `v` as Byzantine for accounting purposes (its Node
  /// implementation is expected to be an adversarial strategy). Byzantine
  /// nodes never "crash"; they run for the whole execution.
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

 private:
  // Aborts (RENAMING_CHECK) if the per-round ledgers disagree with the run
  // totals or the adversary overspent its budget; called at the end of run().
  void check_stats_consistent() const;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<CrashAdversary> adversary_;
  std::vector<bool> alive_;
  std::vector<bool> byzantine_;
  RunStats stats_;
  TraceSink* trace_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  obs::Progress* progress_ = nullptr;
  obs::Provenance* provenance_ = nullptr;
  parallel::ShardPlan plan_;
};

}  // namespace renaming::sim
