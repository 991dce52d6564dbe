// Per-run telemetry: phase-attributed counters, log-scale histograms, and
// span/instant records for the Perfetto export (docs/OBSERVABILITY.md).
//
// One Telemetry object per run, explicitly wired (engine + protocol nodes
// hold non-owning pointers) — never a global or a thread_local, because the
// bench drivers run independent simulations concurrently and src/ is
// single-threaded by the R6 lint invariant. What node callbacks record
// (PhaseScope spans and wall time, the engine's per-receiver inbox sample)
// goes to the calling shard's slot and folds in shard order after each
// fan-out (sim/parallel/shard.h), so the recorded spans come out in the
// serial order at any thread count.
//
// Determinism contract: telemetry is observational. It never feeds back
// into protocol or engine behaviour, so stats, traces and outcomes are
// byte-identical with and without it (pinned by the golden and determinism
// tests). The only nondeterministic quantities it records are wall-clock
// durations, which appear exclusively in telemetry output (metrics JSON,
// Perfetto), never in traces or RunStats.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "sim/message.h"
#include "sim/parallel/shard.h"

namespace renaming::sim {
struct Observers;
}  // namespace renaming::sim

namespace renaming::obs {

/// Monotonic wall clock in nanoseconds. The ONLY clock read in src/ —
/// telemetry output is the one sanctioned nondeterministic surface (see
/// the determinism contract above); protocol and engine code must never
/// call this.
std::int64_t now_ns();

/// Bounded per-round series: a plain vector until `capacity` entries, then
/// modular overwrite keeping the most recent rounds — the same ring policy
/// as the journal's record ring (obs/journal.h). Capacity 0 = unbounded
/// (the historical behaviour, fine below the sparse cutoff; a million-node
/// run at an unbounded series is how the per_round vectors used to grow
/// without limit). Exporters must consult dropped() and say so.
template <typename T>
class RoundRing {
 public:
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return data_.size(); }

  void push_back(T v) {
    if (capacity_ == 0 || data_.size() < capacity_) {
      data_.push_back(v);
    } else {
      data_[head_] = v;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Ring contents oldest to newest; entry i is round dropped() + i + 1.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) {
      out.push_back(data_[(head_ + i) % data_.size()]);
    }
    return out;
  }

 private:
  std::vector<T> data_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Double-entry ledger cell: everything charged to one phase.
struct PhaseTotals {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::int64_t wall_ns = 0;
};

/// One contiguous stretch of a node inside a phase, in round units.
/// `end_round` is exclusive: [begin_round, end_round).
struct PhaseSpan {
  NodeIndex node = 0;
  PhaseId phase = PhaseId::kUnattributed;
  Round begin_round = 0;
  Round end_round = 0;
};

/// Point events for the Perfetto export.
struct Instant {
  enum class Kind : std::uint8_t { kCrash, kSpoofRejected };
  Kind kind = Kind::kCrash;
  Round round = 0;
  NodeIndex node = 0;          ///< victim (crash) or forging sender (spoof)
  sim::MsgKind msg_kind = 0;   ///< spoof only: kind of the forged message
};

class Telemetry {
 public:
  /// Seeds the kind -> phase attribution from the message-kind table
  /// (sim::canonical_phase), so Telemetry and the journal/doctor charge
  /// every kind alike. Kinds without a row are charged to kUnattributed,
  /// which keeps the double-entry property for arbitrary (including
  /// adversarial) traffic.
  Telemetry();

  // --- setup (cold path; called by run_* entry points) -------------------
  /// Attaches a human-readable label to a node's Perfetto track (e.g.
  /// "committee"). May be called after the run.
  void label_node(NodeIndex node, std::string label) {
    node_labels_[node] = std::move(label);
  }

  /// Caps the per-round series (round wall time, active-sender counts) at
  /// the last `capacity` rounds, the journal's flight-recorder ring policy
  /// — run totals and histograms still span the whole run. 0 = unbounded.
  /// The CLI applies a default cap at or above the engine's sparse cutoff,
  /// where round counts (and thus the old unbounded vectors) get large.
  void set_per_round_capacity(std::size_t capacity) {
    per_round_wall_ns_.set_capacity(capacity);
    per_round_active_.set_capacity(capacity);
  }

  // --- engine hooks (hot path: pointer bumps and array indexing only) ----
  /// `shards` is the engine's shard map, whose fan-outs the recorder
  /// follows until end_run (null: no engine, every write is direct).
  void begin_run(NodeIndex n, const sim::parallel::ShardMap* shards = nullptr) {
    node_phase_.assign(n, OpenPhase{});
    shards_.bind(shards);
    run_begin_ns_ = now_ns();
  }

  void on_round_begin(Round round) {
    (void)round;
    round_begin_ns_ = now_ns();
  }

  void on_round_end(Round round) {
    (void)round;
    const std::int64_t dt = now_ns() - round_begin_ns_;
    round_wall_ns_->add(dt < 0 ? 0 : static_cast<std::uint64_t>(dt));
    per_round_wall_ns_.push_back(dt < 0 ? 0 : dt);
    rounds_->add(1);
  }

  /// Charges `count` messages of `bits` each, attributed by kind. Bulk on
  /// purpose: the broadcast fast path calls this once per logical entry.
  void note_messages(sim::MsgKind kind, std::uint64_t count,
                     sim::WireBits bits) {
    PhaseTotals& t = phases_[kind_phase_[kind]];
    const std::uint64_t total = static_cast<std::uint64_t>(bits) * count;
    t.messages += count;
    t.bits += total;
    kind_messages_[kind] += count;
    kind_bits_[kind] += total;
    messages_->add(count);
    bits_->add(total);
    message_bits_->add_weighted_sum(bits, count);
  }

  /// Records the inbox occupancy seen by `receivers` nodes this round,
  /// `receiver` the first of them (bulk: a closed form hands all n the
  /// same view). Inside a fan-out the sample goes to `receiver`'s shard.
  void note_inbox(NodeIndex receiver, std::uint64_t occupancy,
                  std::uint64_t receivers = 1) {
    (shards_.running() ? shards_.at(receiver).inbox_occupancy
                       : *inbox_occupancy_)
        .add(occupancy, receivers);
  }

  void note_active_senders(std::uint64_t count) {
    active_senders_->set(static_cast<std::int64_t>(count));
    per_round_active_.push_back(static_cast<std::uint32_t>(count));
  }

  void note_crash(Round round, NodeIndex victim) {
    crashes_->add(1);
    instants_.push_back({Instant::Kind::kCrash, round, victim, 0});
  }

  /// One instant per forged send() call (each copy of a coalesced repeat
  /// counts) and per forged *logical* multicast or broadcast entry (the
  /// stats count every rejected copy; the instant marks the attempt).
  void note_spoof(Round round, NodeIndex sender, sim::MsgKind kind) {
    spoof_attempts_->add(1);
    instants_.push_back({Instant::Kind::kSpoofRejected, round, sender, kind});
  }

  // --- protocol hooks (via PhaseScope) -----------------------------------
  /// Marks `node` as being in `phase` from `round` on; consecutive calls
  /// with the same phase are a single compare. Phase changes close the
  /// previous span. Inside a fan-out `node` must be the node whose
  /// callback runs: its shard's slot takes the span.
  void enter_phase(NodeIndex node, PhaseId phase, Round round) {
    RENAMING_CHECK(node < node_phase_.size(),
                   "enter_phase before begin_run or node out of range");
    OpenPhase& open = node_phase_[node];
    if (open.phase == phase) return;
    if (open.phase != PhaseId::kUnattributed) {
      (shards_.running() ? shards_.at(node).spans : spans_)
          .push_back({node, open.phase, open.since, round});
    }
    open.phase = phase;
    open.since = round;
  }

  /// Charges `ns` of `node`'s callback wall time to `phase`.
  void add_phase_wall(NodeIndex node, PhaseId phase, std::int64_t ns) {
    const auto p = static_cast<std::size_t>(phase);
    std::int64_t& wall =
        shards_.running() ? shards_.at(node).wall_ns[p] : phases_[p].wall_ns;
    wall += ns;
  }

  /// Engine side: folds the last fan-out's slots in shard order (spans
  /// append, wall times and inbox samples add).
  void fold_shards();

  /// Closes every open span; `last_round` is the final executed round.
  void end_run(Round last_round);

  // --- introspection / export --------------------------------------------
  const PhaseTotals& phase(PhaseId p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  PhaseId phase_of_kind(sim::MsgKind kind) const {
    return static_cast<PhaseId>(kind_phase_[kind]);
  }
  std::uint64_t kind_messages(sim::MsgKind kind) const {
    return kind_messages_[kind];
  }
  /// Total declared wire bits charged to `kind` (the per-kind ledger the
  /// BudgetAuditor cross-checks against sim/wire_schema.h closed forms).
  std::uint64_t kind_bits(sim::MsgKind kind) const { return kind_bits_[kind]; }
  const std::vector<PhaseSpan>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  /// Snapshot of the kept rounds, oldest to newest; entry i belongs to
  /// round per_round_dropped() + i + 1.
  std::vector<std::int64_t> per_round_wall_ns() const {
    return per_round_wall_ns_.snapshot();
  }
  /// One entry per kept round (deterministic; feeds a Perfetto counter
  /// track), same indexing as per_round_wall_ns().
  std::vector<std::uint32_t> per_round_active_senders() const {
    return per_round_active_.snapshot();
  }
  /// Rounds evicted from the per-round rings (0 when uncapped). The two
  /// series push once per round each, so one figure covers both.
  std::uint64_t per_round_dropped() const {
    return per_round_wall_ns_.dropped();
  }
  const std::map<NodeIndex, std::string>& node_labels() const {
    return node_labels_;
  }
  const std::string& algorithm() const { return algorithm_; }
  std::uint64_t n() const { return n_; }
  std::uint64_t f() const { return f_; }
  std::int64_t run_wall_ns() const { return run_wall_ns_; }
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

 private:
  // Run identity stamped into every export; set only by
  // sim::Observers::begin(), so every run_* labels its observers alike.
  friend struct sim::Observers;
  void set_run_info(std::string algorithm, std::uint64_t n, std::uint64_t f) {
    algorithm_ = std::move(algorithm);
    n_ = n;
    f_ = f;
  }

  struct OpenPhase {
    PhaseId phase = PhaseId::kUnattributed;
    Round since = 0;
  };

  /// What one shard's callbacks recorded since the last fold.
  struct ShardSlot {
    std::vector<PhaseSpan> spans;
    std::array<std::int64_t, kPhaseCount> wall_ns{};
    LogHistogram inbox_occupancy;
  };

  MetricsRegistry registry_;
  // Standard instruments, resolved once in the constructor (hot-path
  // recording is a pointer bump; the registry map is never touched again).
  Counter* messages_;
  Counter* bits_;
  Counter* rounds_;
  Counter* crashes_;
  Counter* spoof_attempts_;
  Gauge* active_senders_;
  LogHistogram* message_bits_;
  LogHistogram* inbox_occupancy_;
  LogHistogram* round_wall_ns_;

  std::array<std::uint8_t, 65536> kind_phase_{};   // MsgKind -> PhaseId
  std::array<std::uint64_t, 65536> kind_messages_{};
  std::array<std::uint64_t, 65536> kind_bits_{};
  std::array<PhaseTotals, kPhaseCount> phases_{};
  std::vector<OpenPhase> node_phase_;
  std::vector<PhaseSpan> spans_;
  sim::parallel::ShardSlots<ShardSlot> shards_;
  std::vector<Instant> instants_;
  RoundRing<std::int64_t> per_round_wall_ns_;
  RoundRing<std::uint32_t> per_round_active_;
  std::map<NodeIndex, std::string> node_labels_;
  std::string algorithm_;
  std::uint64_t n_ = 0;
  std::uint64_t f_ = 0;
  std::int64_t run_begin_ns_ = 0;
  std::int64_t round_begin_ns_ = 0;
  std::int64_t run_wall_ns_ = 0;
};

/// RAII span: protocols open one around their per-callback stage logic.
/// Records the node's phase transition (for spans) and attributes the
/// callback's wall time to the phase. A null telemetry pointer makes it a
/// no-op.
class PhaseScope {
 public:
  PhaseScope(Telemetry* telemetry, NodeIndex node, PhaseId phase, Round round)
      : telemetry_(telemetry), node_(node), phase_(phase) {
    if (telemetry_ == nullptr) return;
    telemetry_->enter_phase(node, phase, round);
    start_ns_ = now_ns();
  }

  ~PhaseScope() {
    if (telemetry_ == nullptr) return;
    telemetry_->add_phase_wall(node_, phase_, now_ns() - start_ns_);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Telemetry* telemetry_;
  NodeIndex node_;
  PhaseId phase_;
  std::int64_t start_ns_ = 0;
};

}  // namespace renaming::obs
