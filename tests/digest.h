// Digests for byte-identity pins.
//
// A pin freezes a seeded run's observable output as a few 64-bit FNV-1a
// values, so a test can assert "this run still produces exactly the bytes
// it produced when the pin was captured" without committing the artifacts
// themselves. Each Digests field covers one artifact family. `observed`
// holds the remaining observers' output: telemetry ledgers, provenance
// bytes and the heartbeat projection.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "obs/telemetry.h"
#include "sim/stats.h"

namespace renaming {

/// FNV-1a over raw bytes: one 64-bit pin for an arbitrarily long artifact.
/// Any reordering, dropped event or changed field shows up here.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Every RunStats field, the per-round ledgers and every node's outcome.
inline std::uint64_t run_digest(const sim::RunStats& s,
                                const std::vector<NodeOutcome>& outcomes) {
  std::ostringstream out;
  out << s.total_messages << ' ' << s.total_bits << ' ' << s.rounds << ' '
      << s.crashes << ' ' << s.byzantine << ' ' << s.spoofs_rejected << ' '
      << s.max_message_bits << '\n';
  for (const sim::RoundStats& r : s.per_round) {
    out << r.messages << ' ' << r.bits << ' ' << r.crashes << '\n';
  }
  for (const NodeOutcome& o : outcomes) {
    out << o.original_id << ' ';
    if (o.new_id) {
      out << *o.new_id;
    } else {
      out << '-';
    }
    out << ' ' << o.correct << '\n';
  }
  return fnv1a(out.str());
}

/// The per-kind telemetry message and bit ledgers of every protocol kind.
inline std::uint64_t ledger_digest(const obs::Telemetry& tel) {
  std::ostringstream out;
  for (unsigned kind = 0; kind < 64; ++kind) {
    const auto k = static_cast<sim::MsgKind>(kind);
    out << tel.kind_messages(k) << ' ' << tel.kind_bits(k) << '\n';
  }
  return fnv1a(out.str());
}

struct Digests {
  std::uint64_t trace = 0;     ///< JSONL trace text
  std::uint64_t journal = 0;   ///< binary journal bytes
  std::uint64_t run = 0;       ///< run_digest(): RunStats and outcomes
  std::uint64_t observed = 0;  ///< telemetry, provenance, heartbeat
};

inline void expect_pin(const Digests& got, const Digests& pin,
                       const std::string& where) {
  EXPECT_EQ(got.trace, pin.trace) << "trace bytes left the pin " << where;
  EXPECT_EQ(got.journal, pin.journal)
      << "journal bytes left the pin " << where;
  EXPECT_EQ(got.run, pin.run) << "RunStats/outcomes left the pin " << where;
  EXPECT_EQ(got.observed, pin.observed)
      << "observer output left the pin " << where;
}

}  // namespace renaming
