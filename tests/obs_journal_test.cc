// Flight-recorder journal tests (obs/journal.h, obs/doctor.h).
//
// The journal's contract is stricter than telemetry's: its bytes must be
// identical whatever other observers are attached (telemetry, traces) and
// whatever the build config — this file pins one golden journal digest so
// the CI configs (dev and the sanitizer presets) cross-check each other.
// On top sit the doctor tests: a
// seeded single-bit perturbation must be localized to its exact round, and
// a forced budget failure must be explained with the guilty phase and its
// round window.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "digest.h"
#include "json_check.h"
#include "obs/doctor.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/trace.h"
#include "test_support.h"

namespace renaming {
namespace {

using test_support::raw_wire_bits;

std::string to_bytes(const obs::JournalData& data) {
  std::ostringstream out;
  obs::write_journal_binary(out, data);
  return out.str();
}

/// One seeded crash run with a journal attached; telemetry and trace are
/// optional so tests can vary the *other* observers.
obs::JournalData crash_journal(std::uint64_t seed, bool with_telemetry,
                               bool with_trace, std::size_t capacity = 0,
                               sim::RunStats* stats_out = nullptr) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, seed);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      12, crash::CommitteeHunter::Mode::kMidResponse, seed, 0.5);
  obs::Telemetry telemetry;
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal(capacity);
  const auto result = crash::run_crash_renaming(
      cfg, params, std::move(adversary),
      {.trace = with_trace ? &trace : nullptr,
       .telemetry = with_telemetry ? &telemetry : nullptr,
       .journal = &journal});
  if (stats_out != nullptr) *stats_out = result.stats;
  return journal.data();
}

obs::JournalData byz_journal(std::uint64_t seed, bool with_telemetry,
                             bool with_trace) {
  const NodeIndex n = 40;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, seed);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = seed;
  obs::Telemetry telemetry;
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  byzantine::run_byz_renaming(
      cfg, params, {1, 7, 23}, &byzantine::Spoofer::make, 0,
      {.trace = with_trace ? &trace : nullptr,
       .telemetry = with_telemetry ? &telemetry : nullptr,
       .journal = &journal});
  return journal.data();
}

// --- determinism / observability contract ----------------------------------

TEST(Journal, BytesIdenticalWhateverOtherObserversAttach) {
  // Telemetry + trace on one side, bare engine on the other: the trace
  // sink switches the engine between the shared-inbox fast path and the
  // per-copy slow path, so this also pins that the fingerprint is
  // delivery-path-independent.
  const auto instrumented = crash_journal(41, true, true);
  const auto bare = crash_journal(41, false, false);
  EXPECT_EQ(instrumented, bare);
  EXPECT_EQ(to_bytes(instrumented), to_bytes(bare));
}

TEST(Journal, ByzantineBytesIdenticalWhateverOtherObserversAttach) {
  // The Byzantine run exercises the multicast and spoof-rejection hooks.
  const auto instrumented = byz_journal(17, true, true);
  const auto bare = byz_journal(17, false, false);
  EXPECT_EQ(instrumented, bare);
  EXPECT_EQ(to_bytes(instrumented), to_bytes(bare));
  EXPECT_GT(instrumented.spoofs_rejected, 0u);
}

TEST(Journal, GoldenJournalIsPinnedAcrossBuildConfigs) {
  // This constant must hold in every CI config (dev and the sanitizer
  // presets). If a change to the journal format or the protocol moves it
  // intentionally, update the pin in the same commit.
  const auto data = crash_journal(48, false, false);
  EXPECT_EQ(fnv1a(to_bytes(data)), 3075384459333091917ull);
}

TEST(Journal, DifferentSeedsProduceDifferentFingerprints) {
  const auto a = crash_journal(41, false, false);
  const auto b = crash_journal(42, false, false);
  EXPECT_NE(to_bytes(a), to_bytes(b));
}

TEST(Journal, RingKeepsLastRecordsButFullTotals) {
  sim::RunStats stats;
  const auto full = crash_journal(41, false, false, 0, &stats);
  const auto ring = crash_journal(41, false, false, 5);
  ASSERT_GT(full.records.size(), 5u);
  EXPECT_EQ(ring.records.size(), 5u);
  EXPECT_EQ(ring.dropped_rounds, full.records.size() - 5);
  EXPECT_FALSE(ring.complete());
  // The ring holds exactly the last five records of the full journal...
  const std::vector<obs::JournalRound> tail(full.records.end() - 5,
                                            full.records.end());
  EXPECT_EQ(ring.records, tail);
  // ...while the run totals still cover the whole execution.
  EXPECT_EQ(ring.total_messages, stats.total_messages);
  EXPECT_EQ(ring.total_bits, stats.total_bits);
  EXPECT_EQ(ring.crashes, stats.crashes);
}

TEST(Journal, TotalsMatchEngineStats) {
  sim::RunStats stats;
  const auto data = crash_journal(41, false, false, 0, &stats);
  EXPECT_EQ(data.total_messages, stats.total_messages);
  EXPECT_EQ(data.total_bits, stats.total_bits);
  EXPECT_EQ(data.rounds, stats.rounds);
  EXPECT_EQ(data.crashes, stats.crashes);
  EXPECT_EQ(data.max_message_bits, stats.max_message_bits);
  ASSERT_EQ(data.records.size(), stats.per_round.size());
  for (std::size_t r = 0; r < data.records.size(); ++r) {
    EXPECT_EQ(data.records[r].messages, stats.per_round[r].messages);
    EXPECT_EQ(data.records[r].bits, stats.per_round[r].bits);
  }
}

// --- serialization ----------------------------------------------------------

TEST(Journal, BinaryRoundTripIsLossless) {
  const auto data = crash_journal(41, false, false);
  std::istringstream in(to_bytes(data));
  obs::JournalData back;
  std::string error;
  ASSERT_TRUE(obs::read_journal_binary(in, &back, &error)) << error;
  EXPECT_EQ(back, data);
}

TEST(Journal, JsonlCarriesHeaderKindNamesAndEvents) {
  const auto data = crash_journal(41, false, false);
  std::ostringstream out;
  obs::write_journal_jsonl(out, data);
  const std::string text = out.str();
  EXPECT_TRUE(json_check::IsJsonLines(text));
  EXPECT_NE(text.find("\"schema\":\"renaming-journal-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"algorithm\":\"crash\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"COMMITTEE\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"crash\""), std::string::npos);
}

// The algorithm name comes back from binary artifacts of arbitrary bytes,
// so every JSONL writer must escape it: no emitted line may carry a raw
// control byte or a quote that ends the string early.
TEST(Journal, JsonlWritersEscapeTheAlgorithmName) {
  const std::string algorithm = "a\"b\\c\n\x01";
  const std::string escaped = R"("algorithm":"a\"b\\c\n\u0001",)";
  std::ostringstream out;
  obs::JournalData journal;
  journal.algorithm = algorithm;
  obs::write_journal_jsonl(out, journal);
  obs::ProvenanceData provenance;
  provenance.algorithm = algorithm;
  obs::write_provenance_jsonl(out, provenance);
  obs::Progress progress;
  sim::Observers{.progress = &progress}.begin(algorithm, 4, 0);
  progress.set_sink(&out);
  progress.begin_run(4);

  EXPECT_TRUE(json_check::IsJsonLines(out.str()));
  std::istringstream lines(out.str());
  std::string line;
  int headers = 0;
  while (std::getline(lines, line)) {
    for (unsigned char c : line) ASSERT_GE(c, 0x20) << line;
    EXPECT_NE(line.find(escaped), std::string::npos) << line;
    ++headers;
  }
  EXPECT_EQ(headers, 3);  // journal, provenance and heartbeat headers
}

// Undoes json_escape's escapes (\" \\ \n \t \u00XX) byte for byte.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
    } else if (s[i + 1] == 'u') {
      out += static_cast<char>(std::stoi(s.substr(i + 4, 2), nullptr, 16));
      i += 5;
    } else {
      const char e = s[++i];
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
    }
  }
  return out;
}

std::string utf8_encode(std::uint32_t cp) {
  std::string out;
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | cp >> 6);
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | cp >> 12);
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | cp >> 18);
    out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
  return out;
}

// Names read back from artifacts are arbitrary bytes: the escaped form must
// always be valid UTF-8 without a raw control byte, and lossless. Text that
// is already valid (ASCII or multibyte, free of quotes, backslashes and
// control bytes) is left exactly as it is, so existing artifacts keep their
// bytes.
TEST(JsonEscape, AnyBytesBecomeValidUtf8AndValidTextIsUnchanged) {
  const auto check = [](const std::string& in) -> std::string {
    const std::string out = obs::json_escape(in);
    // As a JSON string: valid UTF-8, no raw control byte, valid escapes.
    EXPECT_TRUE(json_check::IsJson('"' + out + '"'));
    EXPECT_EQ(json_unescape(out), in) << out;
    return out;
  };
  for (int b = 0; b < 256; ++b) {
    const std::string in(1, static_cast<char>(b));
    const std::string out = check(in);
    if (b >= 0x20 && b < 0x80 && b != '"' && b != '\\') {
      EXPECT_EQ(out, in);
    }
    if (b >= 0x80) {
      EXPECT_EQ(out.size(), 6u) << b;  // \u00XX
    }
  }

  // Boundary scalars of every length pass through unchanged...
  for (const std::uint32_t cp :
       {0x80u, 0x7FFu, 0x800u, 0xD7FFu, 0xE000u, 0xFFFDu, 0xFFFFu, 0x10000u,
        0x10FFFFu}) {
    // Appended, not `"a" + std::string` (GCC 12 -Wrestrict misfires).
    const std::string in = std::string("a").append(utf8_encode(cp)) + "z";
    EXPECT_EQ(check(in), in) << cp;
  }
  // ...while overlongs, surrogates, values past U+10FFFF, invalid leads and
  // truncated sequences have each of their bytes escaped.
  for (const std::string& in :
       {std::string("\xC0\xAF"), std::string("\xE0\x80\x80"),
        std::string("\xED\xA0\x80"), std::string("\xF4\x90\x80\x80"),
        std::string("\xF5\x80\x80\x80"), std::string("\xE2\x82"),
        std::string("\xF0\x9F\x98")}) {
    const std::string out = check(in);
    EXPECT_EQ(out.size(), 6 * in.size()) << out;
  }

  Xoshiro256 rng(0xE5C);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    std::string text;  // valid UTF-8, no byte json_escape rewrites
    for (std::uint64_t k = rng.below(24); k > 0; --k) {
      bytes += static_cast<char>(rng.below(256));
      std::uint32_t cp = 0;
      do {
        cp = static_cast<std::uint32_t>(
            rng.below(2) == 0 ? 0x20 + rng.below(0x60) : rng.below(0x110000));
      } while (cp < 0x20 || cp == '"' || cp == '\\' ||
               (cp >= 0xD800 && cp <= 0xDFFF));
      text += utf8_encode(cp);
    }
    check(bytes);
    EXPECT_EQ(check(text), text);
  }
}

// The RFC 8259 checker the exporter tests lean on (json_check.h) must
// accept what the grammar allows and reject a hand-rolled writer's near
// misses.
TEST(JsonCheck, AcceptsNestingEscapesNumbersAndUtf8) {
  for (const char* ok :
       {"{}", " [ ] ", "0", "-0.5e+10", "1E-3", "true", "null",
        R"({"a":[1,{"b":[[],{}]},"x"],"c":false})",
        R"("\" \\ \/ \b \f \n \r \t \u00e9")",
        "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"",
        "{ \"k\" :\t\r\n\"v\" }"}) {
    EXPECT_TRUE(json_check::IsJson(ok));
  }
}

TEST(JsonCheck, RejectsNearMissesAndAPlantedBadLine) {
  for (const char* bad :
       {"", "{", "[1,]", R"({"a":1,})", "{a:1}", R"({'a':1})", R"({"a" 1})",
        "nan", "inf", "-inf", "NaN", "01", "1.", ".5", "+1", "1e", "tru",
        "\"unterminated", R"("bad \x escape")", R"("\u12")",
        "\"tab\there\"", "\"\xc3\"", "\"\xed\xa0\x80\"", "1 2"}) {
    EXPECT_FALSE(json_check::IsJson(bad)) << bad;
  }
  EXPECT_TRUE(json_check::IsJsonLines("{\"a\":1}\n[2]\n"));
  EXPECT_FALSE(json_check::IsJsonLines(""));
  EXPECT_FALSE(json_check::IsJsonLines("{\"a\":1}"));  // no final newline
  EXPECT_FALSE(json_check::IsJsonLines("{\"a\":1}\n\n[2]\n"));
  EXPECT_FALSE(json_check::IsJsonLines("{\"a\":1}\n{\"b\":nan}\n[2]\n"));
}

// --- one attribution for Telemetry and the journal ---------------------------

/// The per-phase ledgers the doctor re-derives from `journal` equal the
/// live Telemetry ledgers.
void expect_phase_ledgers_agree(const obs::JournalData& journal,
                                const obs::Telemetry& telemetry) {
  const auto phases = obs::phases_from_journal(journal);
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto id = static_cast<obs::PhaseId>(i);
    EXPECT_EQ(phases[i].messages, telemetry.phase(id).messages)
        << obs::phase_name(id);
    EXPECT_EQ(phases[i].bits, telemetry.phase(id).bits)
        << obs::phase_name(id);
  }
}

TEST(Journal, CanonicalRegistryMatchesLiveTelemetryLedgers) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 41);
  crash::CrashParams params;
  params.election_constant = 3.0;
  obs::Telemetry telemetry;
  obs::Journal journal;
  const auto result = crash::run_crash_renaming(
      cfg, params, nullptr, {.telemetry = &telemetry, .journal = &journal});
  expect_phase_ledgers_agree(journal.data(), telemetry);
  // The journal also reconciles with RunStats.
  const auto stats = obs::stats_from_journal(journal.data());
  EXPECT_EQ(stats.total_messages, result.stats.total_messages);
  EXPECT_EQ(stats.total_bits, result.stats.total_bits);
  EXPECT_EQ(stats.rounds, result.stats.rounds);
  EXPECT_EQ(stats.per_round, result.stats.per_round);
}

// --- the doctor -------------------------------------------------------------

constexpr sim::MsgKind kProbe = 41;

/// Broadcasts one deterministic word per round; one instance can be told
/// to flip a single payload bit in a single round (the planted fault).
class ProbeNode final : public sim::Node {
 public:
  ProbeNode(NodeIndex self, Round rounds, Round flip_round = 0)
      : self_(self), rounds_(rounds), flip_round_(flip_round) {}

  void send(Round round, sim::Outbox& out) override {
    std::uint64_t word = (static_cast<std::uint64_t>(self_) << 20) | round;
    if (round == flip_round_) word ^= 1ull << 17;
    out.broadcast(sim::make_message(kProbe, raw_wire_bits(32), word));
  }

  void receive(Round round, sim::InboxView) override { executed_ = round; }
  bool done() const override { return executed_ >= rounds_; }

 private:
  NodeIndex self_;
  Round rounds_;
  Round flip_round_;
  Round executed_ = 0;
};

obs::JournalData probe_run(NodeIndex n, Round rounds, Round flip_round) {
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<ProbeNode>(
        v, rounds, v == 3 ? flip_round : Round{0}));
  }
  obs::Journal journal;
  sim::Observers{.journal = &journal}.begin("probe", n, 0);
  sim::Engine engine(std::move(nodes), nullptr, {.journal = &journal});
  engine.run(rounds);
  return journal.data();
}

TEST(Journal, TelemetryAndJournalAgreeOnAnyKind) {
  // A bare engine runs no run_* entry point, yet Telemetry and the journal
  // must charge the probe's kind (41, a message-kind table row) to the same
  // phase, because both read it from that row.
  const NodeIndex n = 8;
  const Round rounds = 3;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<ProbeNode>(v, rounds));
  }
  obs::Telemetry telemetry;
  obs::Journal journal;
  sim::Engine engine(std::move(nodes), nullptr,
                     {.telemetry = &telemetry, .journal = &journal});
  engine.run(rounds);
  const auto phases = obs::phases_from_journal(journal.data());
  EXPECT_EQ(phases[static_cast<std::size_t>(obs::PhaseId::kBaselineExchange)]
                .messages,
            std::uint64_t{n} * n * rounds);
  expect_phase_ledgers_agree(journal.data(), telemetry);
}

TEST(Doctor, BisectsASingleFlippedPayloadBitToItsRound) {
  const auto clean = probe_run(16, 12, 0);
  const auto faulty = probe_run(16, 12, 7);
  const auto report = obs::diagnose_divergence(clean, faulty);
  ASSERT_TRUE(report.diverged()) << report.explanation;
  EXPECT_EQ(report.first_divergent_round, 7u);
  // Same kind, same counts, same events — only the payload fingerprint
  // moved, and the explanation says so.
  EXPECT_TRUE(report.counts_match) << report.explanation;
  EXPECT_TRUE(report.kind_deltas.empty());
  EXPECT_GT(report.probes, 0u);
  EXPECT_NE(report.explanation.find("first divergent round"),
            std::string::npos);
  // Identical inputs stay identical (the bisection has a fixed point).
  const auto same = obs::diagnose_divergence(clean, clean);
  EXPECT_EQ(same.verdict, obs::DivergenceReport::Verdict::kIdentical);
}

TEST(Doctor, DivergentCrashScheduleIsExplainedWithKindAndEventDeltas) {
  const auto a = crash_journal(41, false, false);
  const auto b = crash_journal(42, false, false);
  const auto report = obs::diagnose_divergence(a, b);
  ASSERT_TRUE(report.diverged());
  EXPECT_NE(report.explanation.find("round"), std::string::npos);
}

TEST(Doctor, IncompatibleJournalsAreIncomparable) {
  auto a = crash_journal(41, false, false);
  auto b = a;
  b.algorithm = "byz";
  EXPECT_EQ(obs::diagnose_divergence(a, b).verdict,
            obs::DivergenceReport::Verdict::kIncomparable);
}

TEST(Doctor, ExplainsAForcedAuditFailureWithPhaseAndWindow) {
  sim::RunStats stats;
  const auto data = crash_journal(41, false, false, 0, &stats);
  obs::BudgetParams params;
  params.algorithm = "crash";
  params.n = data.n;
  params.f = data.f;
  params.namespace_size = 5ull * data.n * data.n;
  // Squeeze every envelope to a fraction of the measured run: the audit
  // must fail, rank the phases by overshoot, and name the worst one with
  // its round window.
  params.slack = 1e-6;
  const auto diagnosis = obs::diagnose_audit(params, data);
  EXPECT_FALSE(diagnosis.ok);
  ASSERT_FALSE(diagnosis.phases.empty());
  EXPECT_TRUE(diagnosis.phases.front().violated);
  EXPECT_GT(diagnosis.phases.front().overshoot, 1.0);
  EXPECT_GE(diagnosis.phases.front().window_end,
            diagnosis.phases.front().window_begin);
  EXPECT_FALSE(diagnosis.dominant_term.empty());
  EXPECT_NE(diagnosis.explanation.find("FAIL"), std::string::npos);
  EXPECT_NE(diagnosis.explanation.find("rounds"), std::string::npos);
  // And the same journal passes at slack 1 (the run is within budget).
  params.slack = 1.0;
  const auto ok = obs::diagnose_audit(params, data);
  EXPECT_TRUE(ok.ok) << ok.explanation;
  EXPECT_NE(ok.explanation.find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace renaming
