// Execution tracing: a sink interface the engine reports structured events
// to, plus two stock sinks — a per-message-kind counter and a JSON-lines
// writer. Used by the adversary_lab example, the CLI, and tests that audit
// the engine's accounting against an independent observer.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>

#include "common/check.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/wire_schema.h"
#include "sim/stats.h"

namespace renaming::sim {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_round_begin(Round /*round*/) {}
  /// A message left its sender. `delivered` is false when the destination
  /// has crashed or authentication rejected a forged origin.
  virtual void on_message(Round /*round*/, const Message& /*m*/,
                          NodeIndex /*dest*/, bool /*delivered*/) {}
  /// A node crashed; `kept` of its `queued` outbox entries escaped.
  virtual void on_crash(Round /*round*/, NodeIndex /*victim*/,
                        std::size_t /*kept*/, std::size_t /*queued*/) {}
  virtual void on_round_end(Round /*round*/, const RoundStats& /*stats*/) {}
};

/// Aggregates message counts per protocol tag — the cheap way to see where
/// a protocol's message budget goes.
class CountingTrace final : public TraceSink {
 public:
  void on_message(Round, const Message& m, NodeIndex, bool delivered) override {
    ++sent_[m.kind];
    bits_[m.kind] += m.bits;
    if (!delivered) ++undelivered_[m.kind];
    ++total_;
  }

  void on_crash(Round, NodeIndex, std::size_t, std::size_t) override {
    ++crashes_;
  }

  std::uint64_t sent(MsgKind kind) const { return value_or_zero(sent_, kind); }
  std::uint64_t bits(MsgKind kind) const { return value_or_zero(bits_, kind); }
  std::uint64_t undelivered(MsgKind kind) const {
    return value_or_zero(undelivered_, kind);
  }
  std::uint64_t total() const { return total_; }
  std::uint64_t crashes() const { return crashes_; }
  const std::map<MsgKind, std::uint64_t>& by_kind() const { return sent_; }

  /// One line per kind with its canonical name (sim/wire_schema.h):
  ///   STATUS(2): 1234 msgs, 56789 bits, 7 undelivered
  /// A kind without a table row prints as `?(<kind>)`.
  void report(std::ostream& out) const {
    for (const auto& [kind, count] : sent_) {
      out << message_name(kind) << "(" << kind << "): " << count << " msgs, "
          << bits(kind) << " bits, " << undelivered(kind) << " undelivered\n";
    }
  }

 private:
  static std::uint64_t value_or_zero(const std::map<MsgKind, std::uint64_t>& m,
                                     MsgKind k) {
    const auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  }

  std::map<MsgKind, std::uint64_t> sent_;
  std::map<MsgKind, std::uint64_t> bits_;
  std::map<MsgKind, std::uint64_t> undelivered_;
  std::uint64_t total_ = 0;
  std::uint64_t crashes_ = 0;
};

/// Emits one JSON object per event; `message` events can be sampled down
/// with `message_sample` (1 = every message) to keep traces readable.
class JsonlTrace final : public TraceSink {
 public:
  explicit JsonlTrace(std::ostream& out, std::uint64_t message_sample = 1)
      : out_(&out), sample_(message_sample == 0 ? 1 : message_sample) {}

  void on_round_begin(Round round) override {
    *out_ << "{\"event\":\"round\",\"round\":" << round << "}\n";
  }

  void on_message(Round round, const Message& m, NodeIndex dest,
                  bool delivered) override {
    if (++seen_ % sample_ != 0) return;
    *out_ << "{\"event\":\"message\",\"round\":" << round
          << ",\"from\":" << m.sender << ",\"to\":" << dest
          << ",\"kind\":" << m.kind << ",\"kind_name\":\""
          << message_name(m.kind) << "\",\"bits\":" << m.bits
          << ",\"delivered\":" << (delivered ? "true" : "false") << "}\n";
  }

  void on_crash(Round round, NodeIndex victim, std::size_t kept,
                std::size_t queued) override {
    *out_ << "{\"event\":\"crash\",\"round\":" << round
          << ",\"node\":" << victim << ",\"kept\":" << kept
          << ",\"queued\":" << queued << "}\n";
  }

  void on_round_end(Round round, const RoundStats& stats) override {
    *out_ << "{\"event\":\"round_end\",\"round\":" << round
          << ",\"messages\":" << stats.messages << ",\"bits\":" << stats.bits
          << ",\"crashes\":" << stats.crashes << "}\n";
  }

 private:
  std::ostream* out_;
  std::uint64_t sample_;
  std::uint64_t seen_ = 0;
};

/// Memory/volume bound for million-node runs (docs/PERFORMANCE.md §10): a
/// decorator that forwards at most `max_messages` message events to the
/// wrapped sink, then silently drops the rest of the run's messages (round
/// and crash events always pass — they are O(rounds), not O(events)). The
/// observability downstream is explicitly *incomplete* once dropped() is
/// nonzero, so a capped trace refuses to stand in for a golden pin:
/// assert_complete_for_pinning() aborts when any message was dropped, and
/// every byte-comparison harness must call it before trusting the bytes.
class CappedTrace final : public TraceSink {
 public:
  CappedTrace(TraceSink& inner, std::uint64_t max_messages)
      : inner_(&inner), max_messages_(max_messages) {}

  void on_round_begin(Round round) override { inner_->on_round_begin(round); }

  void on_message(Round round, const Message& m, NodeIndex dest,
                  bool delivered) override {
    if (forwarded_ >= max_messages_) {
      ++dropped_;
      return;
    }
    ++forwarded_;
    inner_->on_message(round, m, dest, delivered);
  }

  void on_crash(Round round, NodeIndex victim, std::size_t kept,
                std::size_t queued) override {
    inner_->on_crash(round, victim, kept, queued);
  }

  void on_round_end(Round round, const RoundStats& stats) override {
    inner_->on_round_end(round, stats);
  }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Golden-pin guard: a trace that dropped events is not byte-comparable
  /// to anything. Call this before feeding the inner sink's output to any
  /// byte-identity check; it aborts the process on an incomplete trace.
  void assert_complete_for_pinning() const {
    RENAMING_CHECK(dropped_ == 0,
                   "capped trace dropped events; bytes are not pinnable");
  }

 private:
  TraceSink* inner_;
  std::uint64_t max_messages_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace renaming::sim
