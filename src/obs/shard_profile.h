// Per-shard, per-phase wall-time profile of the shard-parallel engine
// (docs/OBSERVABILITY.md §8, docs/PERFORMANCE.md §9).
//
// Attached through sim::parallel::ShardPlan::profile: the engine stamps
// each shard's callback window inside the send/receive fan-outs (every
// shard writes only its own scratch slot, so the parallel phases stay
// parallel) and folds the stamps into this object from the caller thread
// after each join — per shard and per phase it accumulates busy time
// (inside the shard's callback loop) and barrier-wait time (between the
// shard finishing and the slowest shard finishing), and it times the two
// serial sweeps (delivery, shard-result merge) as single-lane phases.
// From those ledgers fall out the quantities ROADMAP item 1's "near-linear
// to 8+ cores" acceptance needs: per-phase imbalance (max/mean shard busy)
// and the barrier-wait share of total shard time.
//
// Determinism contract: identical to Telemetry's — purely observational
// wall-clock data that appears only in profile output (binary dump,
// Perfetto per-shard tracks, the doctor's report), never in traces,
// journals, stats or outcomes; byte-identity of those with profiling on
// and off at every thread count is pinned by tests/obs_progress_test.cc.
// No observer changes K, so the profile records the run's real shards
// whatever else is attached.
//
// Bounded memory: totals are O(shards); the per-round samples feeding the
// Perfetto tracks live in a ring of the last `ring_capacity` rounds.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace renaming::sim {
struct Observers;
}  // namespace renaming::sim

namespace renaming::obs {

/// Engine phases the profiler distinguishes. Send and receive fan out
/// across shards; deliver (the authenticate/account/deliver sweep) and
/// merge (fold of per-shard scratch + active-list maintenance) are serial
/// by construction and always recorded on lane 0.
enum class ShardPhase : std::uint8_t {
  kSend = 0,
  kDeliver = 1,
  kMerge = 2,
  kReceive = 3,
};
inline constexpr std::size_t kShardPhaseCount = 4;

const char* shard_phase_name(ShardPhase p);
inline bool shard_phase_parallel(ShardPhase p) {
  return p == ShardPhase::kSend || p == ShardPhase::kReceive;
}

/// Run-total ledger of one (phase, shard) cell.
struct ShardPhaseTotals {
  std::int64_t busy_ns = 0;
  std::int64_t wait_ns = 0;    ///< barrier wait (parallel phases only)
  std::uint64_t rounds = 0;    ///< rounds this shard participated

  friend bool operator==(const ShardPhaseTotals&,
                         const ShardPhaseTotals&) = default;
};

/// One round's timings, flattened for the ring and the Perfetto tracks:
/// busy[phase * shards + shard] / wait[...] in ns (0 where a shard did not
/// participate), serial lanes on shard 0.
struct ShardRoundSample {
  Round round = 0;
  std::vector<std::int64_t> busy_ns;
  std::vector<std::int64_t> wait_ns;

  friend bool operator==(const ShardRoundSample&,
                         const ShardRoundSample&) = default;
};

/// Everything a profile holds; also what the binary reader returns, so the
/// doctor works identically on live and deserialized profiles.
struct ShardProfileData {
  std::string algorithm;
  std::uint64_t n = 0;
  std::uint32_t shards = 0;
  std::uint64_t rounds = 0;
  std::uint64_t dropped_samples = 0;  ///< rounds evicted from the ring
  /// totals[phase][shard]; serial phases only populate shard 0.
  std::array<std::vector<ShardPhaseTotals>, kShardPhaseCount> totals;
  std::vector<ShardRoundSample> samples;  ///< oldest to newest

  friend bool operator==(const ShardProfileData&,
                         const ShardProfileData&) = default;
};

// --- aggregate metrics ------------------------------------------------------

/// max / mean of per-shard busy time in `p` (1.0 = perfectly balanced;
/// 0.0 when the phase never ran). The straggler metric.
double shard_imbalance(const ShardProfileData& data, ShardPhase p);

/// Σ wait / Σ (busy + wait) over the parallel phases — the fraction of
/// shard-time spent blocked on the fork/join barrier. The quantity
/// bench_compare.py soft-gates as `barrier_wait_share`.
double barrier_wait_share(const ShardProfileData& data);

/// Index of the shard with the largest total busy time across the
/// parallel phases (0 when nothing ran).
std::uint32_t straggler_shard(const ShardProfileData& data);

class ShardProfile {
 public:
  struct Options {
    /// Per-round samples kept for the Perfetto tracks (last K); 0 keeps
    /// every round.
    std::size_t ring_capacity = 1024;
  };

  ShardProfile();
  explicit ShardProfile(Options opts);

  // --- engine hooks (called from the caller thread only; the per-shard
  // stamps themselves live in engine scratch) -----------------------------
  void begin_run(NodeIndex n, unsigned shards);
  void on_round_begin(Round round);
  /// Folds one shard's window of a parallel phase: `busy_ns` inside its
  /// callback loop, `wait_ns` from its finish to the join.
  void note_shard(ShardPhase p, unsigned shard, std::int64_t busy_ns,
                  std::int64_t wait_ns);
  /// Times a serial sweep (deliver / merge), recorded on lane 0.
  void note_serial(ShardPhase p, std::int64_t ns) { note_shard(p, 0, ns, 0); }
  void on_round_end(Round round);
  void end_run(Round last_round) { data_.rounds = last_round; }

  // --- introspection / export --------------------------------------------
  const ShardProfileData& data() const { return data_; }
  unsigned shards() const { return data_.shards; }

 private:
  // Run identity stamped into every export; set only by
  // sim::Observers::begin(), so every run_* labels its observers alike.
  friend struct sim::Observers;
  void set_run_info(std::string algorithm) {
    data_.algorithm = std::move(algorithm);
  }

  Options opts_;
  ShardProfileData data_;
  ShardRoundSample open_;  // sample under construction
};

/// Versioned binary export ("RNSP", v1, little-endian), byte-stable given
/// equal ShardProfileData. Written by renaming_cli --shard-profile-out,
/// read back by the `renaming_doctor profile` subcommand.
void write_shard_profile_binary(std::ostream& out,
                                const ShardProfileData& data);

/// Parses a write_shard_profile_binary stream. Returns false (and sets
/// *error if non-null) on malformed or version-mismatched input.
bool read_shard_profile_binary(std::istream& in, ShardProfileData* data,
                               std::string* error = nullptr);

/// Pre-rendered shard-utilization / straggler report (multi-line, ends
/// with a newline) — the doctor CLI prints it verbatim, keeping the R8
/// "no terminal bytes under src/" invariant.
std::string describe_shard_profile(const ShardProfileData& data);

}  // namespace renaming::obs
