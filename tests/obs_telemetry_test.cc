// Telemetry subsystem tests (src/obs/, docs/OBSERVABILITY.md).
//
// Three layers are pinned here: the metric instruments (bucketing and
// registry semantics), the double-entry phase attribution (per-phase
// ledgers must sum EXACTLY to the engine's RunStats on real protocol
// runs — every accounted message carries a kind, every kind maps to one
// phase), and the exporters (well-formed metrics JSON / Chrome trace-event
// JSON with the expected records). Observational invisibility — identical
// stats and traces with telemetry attached — is pinned by golden_test.cc
// and determinism_test.cc; this file covers what telemetry itself reports.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "baselines/cht_crash.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "json_check.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/wire_schema.h"
#include "test_support.h"

namespace renaming {
namespace {

using test_support::raw_wire_bits;

// --- instruments ------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(0);
  c.add(39);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeTracksLastValueAndMax) {
  obs::Gauge g;
  g.set(7);
  g.set(100);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 100);
}

TEST(Metrics, LogHistogramBucketsByBitWidth) {
  // Bucket 0 is exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b).
  obs::LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1023);
  h.add(1024);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1u);  // [4, 8)
  EXPECT_EQ(h.bucket(10), 1u);  // [512, 1024) -> 1023
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2048)
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(11), 1024u);
}

TEST(Metrics, LogHistogramWeightedSum) {
  obs::LogHistogram h;
  h.add_weighted_sum(32, 10);  // 10 messages of 32 bits
  h.add_weighted_sum(64, 2);
  EXPECT_EQ(h.count(), 12u);
  EXPECT_EQ(h.sum(), 32u * 10 + 64u * 2);
  EXPECT_EQ(h.bucket(6), 10u);  // [32, 64)
  EXPECT_EQ(h.bucket(7), 2u);   // [64, 128)
}

TEST(Metrics, RegistryFindOrCreateReturnsStableInstruments) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("messages");
  a.add(5);
  obs::Counter& b = reg.counter("messages");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  reg.histogram("h1");
  reg.histogram("h0");
  // Ordered iteration for deterministic export.
  std::string names;
  for (const auto& [name, h] : reg.histograms()) names += name + ",";
  EXPECT_EQ(names, "h0,h1,");
}

// --- double-entry phase attribution on real runs ---------------------------

std::uint64_t phase_message_sum(const obs::Telemetry& t) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    sum += t.phase(static_cast<obs::PhaseId>(i)).messages;
  }
  return sum;
}

std::uint64_t phase_bit_sum(const obs::Telemetry& t) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    sum += t.phase(static_cast<obs::PhaseId>(i)).bits;
  }
  return sum;
}

TEST(Telemetry, CrashRunPhasesReconcileExactlyWithRunStats) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 12);
  crash::CrashParams params;
  params.election_constant = 3.0;
  obs::Telemetry telemetry;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      16, crash::CommitteeHunter::Mode::kMidResponse, 7, 0.5);
  const auto result = crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok());

  EXPECT_EQ(phase_message_sum(telemetry), result.stats.total_messages);
  EXPECT_EQ(phase_bit_sum(telemetry), result.stats.total_bits);
  // Every crash-protocol kind is registered, so nothing is unattributed.
  EXPECT_EQ(telemetry.phase(obs::PhaseId::kUnattributed).messages, 0u);
  // All three subround phases carried traffic.
  EXPECT_GT(telemetry.phase(obs::PhaseId::kCommitteeAnnounce).messages, 0u);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kStatusReport).messages, 0u);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kCommitteeResponse).messages, 0u);
  // Run metadata and engine-side counters.
  EXPECT_EQ(telemetry.algorithm(), "crash");
  EXPECT_EQ(telemetry.n(), n);
  EXPECT_EQ(telemetry.f(), 16u);
  EXPECT_EQ(telemetry.registry().counter("messages").value(),
            result.stats.total_messages);
  EXPECT_EQ(telemetry.registry().counter("bits").value(),
            result.stats.total_bits);
  EXPECT_EQ(telemetry.registry().counter("rounds").value(),
            result.stats.rounds);
  EXPECT_EQ(telemetry.registry().counter("crashes").value(),
            result.stats.crashes);
  // One crash instant per crash; spans exist and end after they begin.
  std::uint64_t crash_instants = 0;
  for (const auto& i : telemetry.instants()) {
    crash_instants += i.kind == obs::Instant::Kind::kCrash;
  }
  EXPECT_EQ(crash_instants, result.stats.crashes);
  ASSERT_FALSE(telemetry.spans().empty());
  for (const auto& s : telemetry.spans()) {
    EXPECT_LT(s.begin_round, s.end_round);
    EXPECT_LT(s.node, n);
  }
}

TEST(Telemetry, ByzantineRunPhasesReconcileEvenUnderSpoofing) {
  const NodeIndex n = 36;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 11);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 5;
  obs::Telemetry telemetry;
  const auto result = byzantine::run_byz_renaming(
      cfg, params, {2, 9}, &byzantine::Spoofer::make, 0,
      {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok(true));
  ASSERT_GT(result.stats.spoofs_rejected, 0u);

  // Spoofed copies are charged by the engine AND attributed by kind, so
  // the double-entry property survives adversarial traffic.
  EXPECT_EQ(phase_message_sum(telemetry), result.stats.total_messages);
  EXPECT_EQ(phase_bit_sum(telemetry), result.stats.total_bits);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kCommitteeElection).messages, 0u);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kIdentityAggregation).messages, 0u);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kConsensus).messages, 0u);
  EXPECT_GT(telemetry.phase(obs::PhaseId::kDistribution).messages, 0u);
  // Spoof instants: one per forged logical outbox entry, each naming the
  // forging sender; the per-copy rejections are counted by the stats.
  std::uint64_t spoof_instants = 0;
  for (const auto& i : telemetry.instants()) {
    if (i.kind != obs::Instant::Kind::kSpoofRejected) continue;
    ++spoof_instants;
    EXPECT_TRUE(i.node == 2 || i.node == 9) << i.node;
  }
  EXPECT_GT(spoof_instants, 0u);
  EXPECT_LE(spoof_instants, result.stats.spoofs_rejected);
  // Committee members carry the "committee" track label.
  EXPECT_FALSE(telemetry.node_labels().empty());
}

TEST(Telemetry, BaselineRunMapsEverythingToBaselineExchange) {
  const NodeIndex n = 32;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 3);
  obs::Telemetry telemetry;
  const auto result = baselines::run_cht_renaming(
      cfg, nullptr, /*closed_form_cutoff=*/0, {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok());
  EXPECT_EQ(telemetry.algorithm(), "cht");
  EXPECT_EQ(telemetry.phase(obs::PhaseId::kBaselineExchange).messages,
            result.stats.total_messages);
  EXPECT_EQ(telemetry.phase(obs::PhaseId::kBaselineExchange).bits,
            result.stats.total_bits);
  EXPECT_EQ(telemetry.phase(obs::PhaseId::kUnattributed).messages, 0u);
}

TEST(Telemetry, UnregisteredKindsFallBackToUnattributed) {
  obs::Telemetry t;
  t.begin_run(2);
  t.on_round_begin(1);
  t.note_messages(/*kind=*/777, /*count=*/5, /*bits=*/raw_wire_bits(32));
  t.on_round_end(1);
  t.end_run(1);
  EXPECT_EQ(t.phase(obs::PhaseId::kUnattributed).messages, 5u);
  EXPECT_EQ(t.phase(obs::PhaseId::kUnattributed).bits, 5u * 32u);
  EXPECT_EQ(t.kind_messages(777), 5u);
  EXPECT_EQ(t.phase_of_kind(777), obs::PhaseId::kUnattributed);
}

TEST(Telemetry, FreshObjectAttributesEveryTableRow) {
  // No run_* entry point has touched this object: the kind -> phase
  // attribution comes from the message-kind table alone.
  const obs::Telemetry t;
  for (const sim::wire::WireSchema& row : sim::wire::kWireSchemas) {
    EXPECT_EQ(t.phase_of_kind(sim::wire::raw(row.kind)), row.phase)
        << row.name;
  }
  EXPECT_EQ(t.phase_of_kind(777), obs::PhaseId::kUnattributed);
}

TEST(Telemetry, PhaseScopeRecordsSpansAndNullIsANoOp) {
  obs::Telemetry t;
  t.begin_run(3);
  {
    obs::PhaseScope s(&t, 1, obs::PhaseId::kCommitteeElection, 1);
  }
  {
    obs::PhaseScope s(&t, 1, obs::PhaseId::kCommitteeElection, 2);
  }
  {
    obs::PhaseScope s(&t, 1, obs::PhaseId::kDistribution, 3);
  }
  t.end_run(5);
  // Same-phase re-entry extends the open span instead of opening another;
  // end_run closes the last one at last_round + 1.
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].phase, obs::PhaseId::kCommitteeElection);
  EXPECT_EQ(t.spans()[0].begin_round, 1u);
  EXPECT_EQ(t.spans()[0].end_round, 3u);
  EXPECT_EQ(t.spans()[1].phase, obs::PhaseId::kDistribution);
  EXPECT_EQ(t.spans()[1].end_round, 6u);
  // Null telemetry: PhaseScope must be safe to construct and destroy.
  obs::PhaseScope noop(nullptr, 0, obs::PhaseId::kConsensus, 1);
}

// --- exporters --------------------------------------------------------------

TEST(Exporters, MetricsJsonContainsTheExpectedSections) {
  const NodeIndex n = 32;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 13);
  crash::CrashParams params;
  params.election_constant = 2.0;
  obs::Telemetry telemetry;
  const auto result =
      crash::run_crash_renaming(cfg, params, nullptr,
                                {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok());

  std::ostringstream out;
  obs::write_metrics_json(out, telemetry, result.stats);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"renaming-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"status-report\""), std::string::npos);
  EXPECT_NE(json.find("\"kinds\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"STATUS\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_TRUE(json_check::IsJson(json));
}

TEST(Exporters, PerfettoTraceContainsSpansInstantsAndCounters) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 14);
  crash::CrashParams params;
  params.election_constant = 3.0;
  obs::Telemetry telemetry;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      12, crash::CommitteeHunter::Mode::kMidResponse, 5, 0.5);
  const auto result = crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.telemetry = &telemetry});
  ASSERT_TRUE(result.report.ok());
  ASSERT_GT(result.stats.crashes, 0u);

  std::ostringstream out;
  obs::write_perfetto_trace(out, telemetry, result.stats);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // phase spans
  EXPECT_NE(trace.find("\"name\":\"crash\""), std::string::npos);  // instants
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(trace.find("\"name\":\"committee-announce\""), std::string::npos);
  EXPECT_TRUE(json_check::IsJson(trace));
}

}  // namespace
}  // namespace renaming
