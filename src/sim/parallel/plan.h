// Shard-parallel execution plan: the `plan` field of the sim::Observers
// bundle every run_* entry point takes and hands to the engine.
//
// Deliberately a plain value with a non-owning pool pointer: the caller
// owns the WorkerPool (one per process is the norm) and may hand the same
// plan to many runs. A default-constructed plan runs every phase as K = 1
// of the engine's one shard fan-out, inline on the calling thread; output
// is byte-identical at any K. This header stays free of threading
// includes so the protocol headers that embed it remain cheap to compile
// and lint.
#pragma once

namespace renaming::obs {
class ShardProfile;
}  // namespace renaming::obs

namespace renaming::sim::parallel {

class WorkerPool;

struct ShardPlan {
  /// Pool to fan callbacks across; nullptr = K = 1 on the calling thread.
  WorkerPool* pool = nullptr;
  /// Shard count K; 0 = the pool's thread count. The engine merges shard
  /// results in fixed order 0..K-1, so any K yields identical bytes.
  unsigned shards = 0;
  /// Optional per-shard, per-phase profiler (obs/shard_profile.h). Purely
  /// observational: the engine stamps shard windows into its own scratch
  /// and folds them here from the calling thread, so attaching a profile
  /// perturbs no bytes. A run without a pool profiles too, as K = 1.
  obs::ShardProfile* profile = nullptr;
};

}  // namespace renaming::sim::parallel
