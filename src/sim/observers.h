// The run observers as one value, and the one place their lifecycle lives
// (docs/OBSERVABILITY.md "Attaching observers").
//
// Every run_* entry point takes one Observers as its last parameter, calls
// begin() before it builds its nodes, and hands the bundle to sim::Engine;
// callers name what they attach ({.telemetry = &tel, .plan = plan}). The
// closed-form baseline paths drive the same fan-outs themselves. The
// bundle owns the policy every entry point used to repeat:
//  * run info — begin() labels every attached observer and begins
//    provenance before node construction (node constructors record
//    self-elections);
//  * the cold fan-outs: run begin, round begin, round end, crash, run end.
// The per-message and spoof hooks stay in the engine's delivery loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/shard.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace renaming::sim {

struct Observers {
  TraceSink* trace = nullptr;
  obs::Telemetry* telemetry = nullptr;
  obs::Journal* journal = nullptr;
  obs::Progress* progress = nullptr;
  obs::Provenance* provenance = nullptr;
  /// Pool, shard count and shard profile (sim/parallel/plan.h).
  parallel::ShardPlan plan = {};

  /// Labels every attached observer with the run's algorithm, n and f,
  /// and begins provenance. Call before constructing nodes.
  void begin(const std::string& algorithm, NodeIndex n,
             std::uint64_t f) const {
    if (telemetry != nullptr) telemetry->set_run_info(algorithm, n, f);
    if (journal != nullptr) journal->set_run_info(algorithm, n, f);
    if (progress != nullptr) progress->set_run_info(algorithm);
    if (plan.profile != nullptr) plan.profile->set_run_info(algorithm);
    if (provenance != nullptr) {
      provenance->set_run_info(algorithm, n, f);
      provenance->begin_run(n);
    }
  }

  /// True when an attached observer records individual deliveries or
  /// decisions, which a closed-form run cannot produce.
  bool needs_simulation() const {
    return trace != nullptr || journal != nullptr || provenance != nullptr;
  }

  // --- lifecycle fan-outs (cold: once per run, round or crash) -----------
  /// `shards` is the engine's shard map: the recorders node code writes
  /// follow its fan-outs (parallel::ShardSlots), and its capacity sets the
  /// profile's lanes. Null for a run without an engine (a closed form).
  void on_run_begin(NodeIndex n, const parallel::ShardMap* shards) const {
    if (telemetry != nullptr) telemetry->begin_run(n, shards);
    if (journal != nullptr) journal->begin_run(n);
    if (progress != nullptr) progress->begin_run(n);
    // Past begin() this only binds `shards`: node constructors may already
    // have recorded.
    if (provenance != nullptr) provenance->begin_run(n, shards);
    if (plan.profile != nullptr) {
      plan.profile->begin_run(n, shards != nullptr ? shards->capacity() : 1);
    }
  }

  void on_round_begin(Round round) const {
    if (trace != nullptr) trace->on_round_begin(round);
    if (telemetry != nullptr) telemetry->on_round_begin(round);
    if (journal != nullptr) journal->on_round_begin(round);
    if (plan.profile != nullptr) plan.profile->on_round_begin(round);
  }

  /// `stats` holds the run so far, its last per-round entry this round.
  void on_round_end(Round round, const RunStats& stats,
                    std::uint64_t active_senders,
                    std::uint64_t outbox_live) const {
    if (trace != nullptr) trace->on_round_end(round, stats.per_round.back());
    if (telemetry != nullptr) telemetry->on_round_end(round);
    if (journal != nullptr) journal->on_round_end(round);
    if (plan.profile != nullptr) plan.profile->on_round_end(round);
    if (progress != nullptr) {
      progress->on_round_end(round, stats.total_messages, stats.total_bits,
                             active_senders, stats.crashes, outbox_live);
    }
  }

  /// `kept` of the victim's `queued` outbox entries escape.
  void on_crash(Round round, NodeIndex victim, std::size_t kept,
                std::size_t queued) const {
    if (trace != nullptr) trace->on_crash(round, victim, kept, queued);
    if (telemetry != nullptr) telemetry->note_crash(round, victim);
    if (journal != nullptr) journal->note_crash(round, victim);
    if (provenance != nullptr) provenance->note_crash(round, victim);
  }

  void on_run_end(Round rounds) const {
    if (telemetry != nullptr) telemetry->end_run(rounds);
    if (journal != nullptr) journal->end_run(rounds);
    if (provenance != nullptr) provenance->end_run(rounds);
    if (plan.profile != nullptr) plan.profile->end_run(rounds);
    if (progress != nullptr) progress->end_run(rounds);
  }
};

}  // namespace renaming::sim
