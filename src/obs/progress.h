// Live run heartbeat (docs/OBSERVABILITY.md §8).
//
// One Progress object per run, explicitly wired like Telemetry
// (a field of the sim::Observers every run_* entry point takes).
// While the run executes it samples a compact snapshot — round number,
// cumulative message/bit counters, active-set size, outbox-table
// occupancy, wall time, peak RSS — into a fixed-size ring and, when a sink
// stream is attached, emits each sample immediately as one JSONL line
// (schema `renaming-progress-v1`), so a 12-minute million-node run is no
// longer a black box between launch and exit.
//
// Determinism contract: progress output is a sanctioned nondeterministic
// surface like telemetry — wall time, RSS and rates appear ONLY here,
// never in traces, journals or RunStats, and a live Progress never feeds
// back into engine or protocol behaviour (byte-identity with and without
// it is pinned by tests/obs_progress_test.cc). The snapshot's counter
// fields (round, messages, bits, active set, crashes) are themselves
// deterministic, and with a round-based cadence the set of sampled rounds
// is too, so the deterministic projection of the stream is byte-identical
// across thread counts; a wall-clock cadence (min_interval_ns > 0) trades
// that for bounded output on unknown-length runs. Outbox occupancy is
// deterministic too, but it describes the engine's memory layout rather
// than the protocol run, so the projection leaves it out.
//
// Bounded memory: the ring keeps the last `ring_capacity` snapshots no
// matter how many rounds execute; the sink stream, if any, receives the
// full sampled history.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace renaming::sim {
struct Observers;
}  // namespace renaming::sim

namespace renaming::obs {

inline constexpr char kProgressSchema[] = "renaming-progress-v1";

/// One heartbeat sample. Fields are split by the determinism contract
/// above: everything before wall_ns is a pure function of the seed,
/// everything from wall_ns on is measured.
struct ProgressSnapshot {
  Round round = 0;
  std::uint64_t messages = 0;        ///< cumulative logical copies
  std::uint64_t bits = 0;            ///< cumulative wire bits
  std::uint64_t active_senders = 0;  ///< this round's active set
  std::uint64_t crashes = 0;         ///< cumulative adversary crashes
  std::uint64_t outbox_live = 0;     ///< allocated outboxes (layout detail)
  std::int64_t wall_ns = 0;          ///< since begin_run
  std::int64_t round_wall_ns = 0;    ///< mean ns/round since last sample
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM so far (obs/rss.h)
  double events_per_sec = 0.0;       ///< cumulative messages / wall
};

class Progress {
 public:
  struct Options {
    /// Sample every k-th round (>= 1). Round-based cadence keeps the set
    /// of sampled rounds deterministic — the golden-pin mode.
    std::uint32_t every_rounds = 1;
    /// > 0: sample at the first round end at least this much wall time
    /// after the previous sample instead (bounded output for runs of
    /// unknown length; record selection becomes nondeterministic).
    std::int64_t min_interval_ns = 0;
    /// Snapshots kept in memory (last K); 0 keeps every sample.
    std::size_t ring_capacity = 256;
  };

  Progress();
  explicit Progress(Options opts);

  /// Attaches the JSONL sink; nullptr detaches (ring-only operation).
  /// Caller-supplied stream per lint rule R8 — the CLI and benches own
  /// the file handles.
  void set_sink(std::ostream* out) { sink_ = out; }

  // --- engine hooks (hot path: a counter compare per round unless the
  // cadence fires) --------------------------------------------------------
  void begin_run(NodeIndex n);
  void on_round_end(Round round, std::uint64_t messages, std::uint64_t bits,
                    std::uint64_t active_senders, std::uint64_t crashes,
                    std::uint64_t outbox_live);
  /// Emits the closing summary line; `last_round` is the final executed
  /// round (also sampled if the cadence missed it).
  void end_run(Round last_round);

  // --- introspection / export --------------------------------------------
  /// Ring contents, oldest to newest.
  std::vector<ProgressSnapshot> snapshots() const;
  std::uint64_t sampled() const { return sampled_; }
  /// Snapshots evicted from the ring (the sink saw them anyway).
  std::uint64_t ring_dropped() const { return ring_dropped_; }
  const std::string& algorithm() const { return algorithm_; }
  std::uint64_t n() const { return n_; }

  /// Renders one snapshot as a JSONL record. `deterministic_only` drops
  /// the measured fields (wall time, rate, RSS) AND the layout-dependent
  /// outbox occupancy, leaving exactly the projection the golden pin
  /// compares across thread counts.
  static void write_record(std::ostream& out, const ProgressSnapshot& s,
                           bool deterministic_only = false);

 private:
  // Run identity stamped into every export; set only by
  // sim::Observers::begin(), so every run_* labels its observers alike.
  friend struct sim::Observers;
  void set_run_info(std::string algorithm) {
    algorithm_ = std::move(algorithm);
  }

  void sample(Round round, std::uint64_t messages, std::uint64_t bits,
              std::uint64_t active_senders, std::uint64_t crashes,
              std::uint64_t outbox_live);

  Options opts_;
  std::ostream* sink_ = nullptr;
  std::string algorithm_;
  std::uint64_t n_ = 0;

  // Ring storage: plain vector until capacity, then modular overwrite —
  // head_ points at the oldest entry once full.
  std::vector<ProgressSnapshot> ring_;
  std::size_t head_ = 0;
  std::uint64_t ring_dropped_ = 0;

  std::uint64_t sampled_ = 0;
  Round last_sampled_round_ = 0;
  std::int64_t run_begin_ns_ = 0;
  std::int64_t last_sample_ns_ = 0;
  // Last sampled cumulative counters, for the closing summary's totals.
  std::uint64_t last_messages_ = 0;
  std::uint64_t last_bits_ = 0;
};

}  // namespace renaming::obs
