// Deterministic flight-recorder journal (docs/OBSERVABILITY.md §7).
//
// One Journal per run, explicitly wired like Telemetry (a field of the
// sim::Observers every run_* entry point takes). Per round it records a
// compact digest: an order-sensitive m61 rolling fingerprint of the round's
// deliveries (hashing/digest.h), per-kind message/bit counts, the active
// sender-set size, and the adversary's deterministic instants (crashes,
// spoof rejections). Two journals from the same seed are byte-identical;
// the first differing record localizes a divergence to its round, and the
// doctor (obs/doctor.h) drills in from there.
//
// Determinism contract — stricter than Telemetry's: the journal records NO
// wall clocks at all, so its bytes are identical across machines and
// across telemetry on/off (telemetry is nondeterministic-by-design in its
// wall fields; the journal exists so the deterministic remainder can be
// diffed). It is observational like every obs/ object: a live journal
// never changes stats, traces or outcomes. The engine hooks are plain
// null-checks, and the fingerprint is computed once per *logical* outbox
// entry (never per broadcast copy), keeping the attached overhead
// under the 2% hot-path budget (docs/PERFORMANCE.md §8).
//
// Bounded mode: a capacity of K keeps only the last K round records (the
// flight-recorder ring); run totals keep covering the whole execution.
// Export: a versioned binary format (read back by read_journal_binary) and
// a JSONL rendering, both via caller-supplied streams (lint rule R8).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "hashing/digest.h"
#include "sim/message.h"

namespace renaming::sim {
struct Observers;
}  // namespace renaming::sim

namespace renaming::obs {

/// Traffic of one message kind within one round.
struct JournalKindCount {
  sim::MsgKind kind = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;

  friend bool operator==(const JournalKindCount&,
                         const JournalKindCount&) = default;
};

/// A deterministic adversary event (the journal's analogue of
/// Telemetry::Instant, minus nothing — both kinds are deterministic).
struct JournalEvent {
  enum class Kind : std::uint8_t { kCrash = 0, kSpoofRejected = 1 };
  Kind kind = Kind::kCrash;
  NodeIndex node = 0;          ///< victim (crash) or forging sender (spoof)
  sim::MsgKind msg_kind = 0;   ///< spoof only: kind of the forged message

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};

/// One round's digest record.
struct JournalRound {
  Round round = 0;
  /// Rolling m61 fingerprint of every logical delivery this round, in
  /// engine delivery order (sender-ascending, send order within a sender):
  /// kind, origin, claimed origin, wire size, payload words, blob contents
  /// and the destination descriptor all feed the digest (each entry is
  /// pre-folded by hashing::WordFold, then chained into the polynomial).
  std::uint64_t fingerprint = 0;
  std::uint64_t messages = 0;  ///< logical per-recipient copies accounted
  std::uint64_t bits = 0;
  std::uint32_t max_message_bits = 0;
  std::uint32_t active_senders = 0;
  std::vector<JournalKindCount> kinds;  ///< ascending by kind
  std::vector<JournalEvent> events;     ///< in occurrence order

  friend bool operator==(const JournalRound&, const JournalRound&) = default;
};

/// Everything a journal holds; also what the binary reader returns, so the
/// doctor works identically on live and deserialized journals.
struct JournalData {
  std::string algorithm;
  std::uint64_t n = 0;
  std::uint64_t f = 0;
  // Run totals — always cover the WHOLE execution, even when the ring
  // dropped early records.
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t crashes = 0;
  std::uint64_t spoofs_rejected = 0;
  std::uint32_t max_message_bits = 0;
  /// Records evicted by the bounded ring (0 = complete journal).
  std::uint64_t dropped_rounds = 0;
  std::vector<JournalRound> records;

  bool complete() const { return dropped_rounds == 0; }

  friend bool operator==(const JournalData&, const JournalData&) = default;
};

class Journal {
 public:
  /// `capacity` == 0 keeps every round; K > 0 keeps the last K records
  /// (flight-recorder ring), with run totals still spanning the whole run.
  explicit Journal(std::size_t capacity = 0) : capacity_(capacity) {}

  // --- engine hooks (hot path; every value recorded is deterministic) ----
  void begin_run(NodeIndex n) {
    if (data_.n == 0) data_.n = n;
  }

  void on_round_begin(Round round) {
    open_.round = round;
    digest_.reset();
  }

  void note_active_senders(std::uint64_t count) {
    open_.active_senders = static_cast<std::uint32_t>(count);
  }

  /// One call per logical outbox entry, never per copy (the broadcast fast
  /// path must stay O(1) per entry). `copies` is the per-recipient fanout.
  void note_broadcast(const sim::Message& m, NodeIndex n) {
    mix_entry(m, kBroadcastCode, n);
  }
  void note_unicast(const sim::Message& m, NodeIndex dest) {
    mix_entry(m, dest, 1);
  }
  void note_multicast(const sim::Message& m,
                      std::span<const NodeIndex> dests) {
    hashing::WordFold d;
    for (NodeIndex dst : dests) d.mix(dst);
    mix_entry(m, kMulticastCode, dests.size());
    digest_.mix_digest(d.value());
  }

  void note_crash(Round round, NodeIndex victim) {
    (void)round;
    open_.events.push_back({JournalEvent::Kind::kCrash, victim, 0});
    ++data_.crashes;
  }

  void on_round_end(Round round);

  void end_run(Round last_round) { data_.rounds = last_round; }

  // --- introspection / export --------------------------------------------
  const JournalData& data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

 private:
  // Run identity stamped into every export; set only by
  // sim::Observers::begin(), so every run_* labels its observers alike.
  friend struct sim::Observers;
  void set_run_info(std::string algorithm, std::uint64_t n, std::uint64_t f) {
    data_.algorithm = std::move(algorithm);
    data_.n = n;
    data_.f = f;
  }

  // Destination descriptors folded into the fingerprint. Distinct from any
  // NodeIndex (they exceed kNoNode as 64-bit values).
  static constexpr std::uint64_t kBroadcastCode = 0x62636173743a616cULL;
  static constexpr std::uint64_t kMulticastCode = 0x6d636173743a616cULL;

  void mix_entry(const sim::Message& m, std::uint64_t dest_code,
                 std::uint64_t copies);
  JournalKindCount& kind_slot(sim::MsgKind kind);

  std::size_t capacity_;
  JournalData data_;
  JournalRound open_;            // record under construction
  hashing::RollingDigest digest_;
};

/// Versioned binary export ("RNMJ", v1, little-endian). Byte-stable given
/// equal JournalData — the determinism tests pin journal files, not just
/// in-memory state.
void write_journal_binary(std::ostream& out, const JournalData& data);

/// Parses a write_journal_binary stream. Returns false (and sets *error if
/// non-null) on a malformed or version-mismatched input, including records
/// whose rounds are not consecutive.
bool read_journal_binary(std::istream& in, JournalData* data,
                         std::string* error = nullptr);

/// Human-greppable JSONL: one header object, then one object per record.
void write_journal_jsonl(std::ostream& out, const JournalData& data);

}  // namespace renaming::obs
