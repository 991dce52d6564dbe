// Decision-provenance tests (obs/provenance.h, obs/doctor.h why/blame).
//
// The recorder's contract mirrors the journal's determinism: its exported
// RNPV bytes must be byte-identical across shard counts K (events recorded
// inside callbacks fold in shard order, which is the serial order) and
// match a pin recorded from the retired dense engine layout.
#include <gtest/gtest.h>

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
#include "obs/provenance.h"
#include "sim/observers.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"

namespace renaming {
namespace {

std::string to_bytes(const obs::ProvenanceData& data) {
  std::ostringstream out;
  obs::write_provenance_binary(out, data);
  return out.str();
}

/// Byzantine run with planted Spoofers — exercises protocol decision
/// events, engine spoof rejections and mark_faulty in one recording.
obs::ProvenanceData byz_prov(std::uint64_t seed,
                             obs::ProvenanceOptions opts = {},
                             sim::parallel::ShardPlan plan = {}) {
  const NodeIndex n = 40;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, seed);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = seed;
  obs::Provenance prov(opts);
  byzantine::run_byz_renaming(
      cfg, params, {1, 7, 23}, &byzantine::Spoofer::make, 0,
      {.provenance = &prov, .plan = plan});
  return prov.data();
}

/// Crash run under a mid-send CommitteeHunter — exercises committee
/// decisions, crash observations and the outbox-expansion slow path.
obs::ProvenanceData crash_prov(std::uint64_t seed,
                               obs::ProvenanceOptions opts = {},
                               sim::parallel::ShardPlan plan = {}) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, seed);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      12, crash::CommitteeHunter::Mode::kMidResponse, seed, 0.5);
  obs::Provenance prov(opts);
  crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.provenance = &prov, .plan = plan});
  return prov.data();
}

// --- determinism contract --------------------------------------------------

TEST(Provenance, BytesIdenticalAcrossShardCounts) {
  const std::string serial_byz = to_bytes(byz_prov(21));
  const std::string serial_crash = to_bytes(crash_prov(21));
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : {1u, 2u, 8u}) {
    sim::parallel::ShardPlan plan;
    plan.pool = &pool;
    plan.shards = shards;
    EXPECT_EQ(serial_byz, to_bytes(byz_prov(21, {}, plan)))
        << "byz provenance bytes diverged at K=" << shards;
    EXPECT_EQ(serial_crash, to_bytes(crash_prov(21, {}, plan)))
        << "crash provenance bytes diverged at K=" << shards;
  }
}

// Recorded from the retired dense engine layout before the sparse layout
// became the only one (tests/dense_reference_pins_test.cc).
TEST(Provenance, BytesMatchDenseReferencePin) {
  EXPECT_EQ(fnv1a(to_bytes(byz_prov(33))), 9881905202335370662ull);
  EXPECT_EQ(fnv1a(to_bytes(crash_prov(33))), 17291018302892518597ull);
}

TEST(Provenance, AttachedRecorderRecordsTheRun) {
  const auto data = byz_prov(21);
  EXPECT_GT(data.recorded_events, 0u);
  EXPECT_FALSE(data.events.empty());
  EXPECT_EQ(data.algorithm, "byz");
  EXPECT_EQ(data.faulty, (std::vector<NodeIndex>{1, 7, 23}));
}

// --- watch-set + horizon bounding ------------------------------------------

TEST(Provenance, WatchSetRetainsWatchedAndPinnedCausesOnly) {
  obs::ProvenanceOptions opts;
  opts.watch_nodes = {2};
  opts.horizon = 4;
  obs::Provenance prov(opts);
  sim::Observers{.provenance = &prov}.begin("unit", 8, 0);
  EXPECT_TRUE(prov.watched(2));
  EXPECT_FALSE(prov.watched(3));

  // A hundred decisions at an unwatched node: recorded into the pending
  // ring, evicted as the horizon slides — except ones pinned as causes.
  for (int i = 0; i < 100; ++i) {
    prov.note_event(1, 3, obs::ProvEventKind::kNameProposal, 31,
                    static_cast<std::uint64_t>(i), 0, {});
  }
  // A watched decision citing node 3: its latest pending event gets
  // pinned into the retained set instead of degrading to "(evicted)".
  const std::uint64_t claim =
      prov.note_event(2, 2, obs::ProvEventKind::kNameClaim, 31, 7, 0,
                      {{3, 31, 12}});
  prov.end_run(2);

  const auto data = prov.data();
  EXPECT_EQ(data.watch_mode, 1);
  EXPECT_EQ(data.watch_nodes, (std::vector<NodeIndex>{2}));
  EXPECT_EQ(data.horizon, 4u);
  EXPECT_EQ(data.recorded_events, 101u);
  EXPECT_GT(data.dropped_events, 0u);
  EXPECT_FALSE(data.complete());
  // Retention invariant: everything recorded was either kept or dropped.
  EXPECT_EQ(data.recorded_events, data.dropped_events + data.events.size());
  ASSERT_LT(data.events.size(), 100u);

  const obs::ProvEvent* kept_claim = nullptr;
  for (const obs::ProvEvent& ev : data.events) {
    if (ev.id == claim) kept_claim = &ev;
  }
  ASSERT_NE(kept_claim, nullptr) << "watched decision must be retained";
  ASSERT_EQ(kept_claim->cause_count, 1);
  EXPECT_EQ(kept_claim->causes[0].sender, 3u);
  EXPECT_NE(kept_claim->causes[0].event, obs::kNoProvEvent)
      << "cause within the horizon must resolve to a retained event";
}

TEST(Provenance, SampleModeWatchesStridedNodes) {
  obs::ProvenanceOptions opts;
  opts.sample = 4;
  obs::Provenance prov(opts);
  sim::Observers{.provenance = &prov}.begin("unit", 16, 0);
  EXPECT_TRUE(prov.watched(0));
  EXPECT_FALSE(prov.watched(1));
  prov.end_run(1);
  const auto data = prov.data();
  EXPECT_EQ(data.watch_mode, 2);
  EXPECT_EQ(data.watch_stride, 4u);
}

TEST(Provenance, WatchSetBoundsARealRun) {
  const auto full = byz_prov(21);
  obs::ProvenanceOptions opts;
  opts.sample = 8;
  opts.horizon = 256;
  const auto watched = byz_prov(21, opts);
  EXPECT_LT(watched.events.size(), full.events.size());
  EXPECT_EQ(watched.recorded_events,
            watched.dropped_events + watched.events.size());
}

// --- RNPV v1 round-trip (corrupt inputs: artifact_mutation_test.cc) --------

TEST(Provenance, BinaryRoundTrips) {
  const auto data = byz_prov(21);
  const std::string bytes = to_bytes(data);
  std::istringstream in(bytes);
  obs::ProvenanceData back;
  std::string error;
  ASSERT_TRUE(obs::read_provenance_binary(in, &back, &error)) << error;
  EXPECT_EQ(back.algorithm, data.algorithm);
  EXPECT_EQ(back.n, data.n);
  EXPECT_EQ(back.f, data.f);
  EXPECT_EQ(back.rounds, data.rounds);
  EXPECT_EQ(back.faulty, data.faulty);
  EXPECT_EQ(back.events, data.events);
  EXPECT_EQ(to_bytes(back), bytes);
  std::ostringstream jsonl;
  obs::write_provenance_jsonl(jsonl, data);
  EXPECT_TRUE(json_check::IsJsonLines(jsonl.str()));
}

// --- renaming_doctor why / blame -------------------------------------------

TEST(ProvenanceDoctor, WhyRendersACausalChain) {
  const auto data = byz_prov(21);
  const auto report = obs::diagnose_why(data, 0);
  EXPECT_TRUE(report.found);
  EXPECT_TRUE(report.watched);
  EXPECT_GT(report.chain_events, 0u);
  EXPECT_NE(report.final_name, kNoNewId);
  EXPECT_FALSE(report.explanation.empty());
}

TEST(ProvenanceDoctor, WhyReportsUnwatchedNodes) {
  obs::ProvenanceOptions opts;
  opts.watch_nodes = {0};
  const auto data = byz_prov(21, opts);
  // An unwatched node may still have retained events (pinned as causes of
  // the watched chain), but the report must say it is outside the
  // watch-set so the user knows the chain is partial.
  EXPECT_FALSE(obs::diagnose_why(data, 5).watched);

  // A node with no retained events at all: found = false and the
  // explanation points at the watch-set flags.
  obs::Provenance empty(opts);
  sim::Observers{.provenance = &empty}.begin("unit", 8, 0);
  empty.note_event(1, 0, obs::ProvEventKind::kNameClaim, 30, 1, 0, {});
  empty.end_run(1);
  const auto report = obs::diagnose_why(empty.data(), 5);
  EXPECT_FALSE(report.found);
  EXPECT_FALSE(report.watched);
  EXPECT_NE(report.explanation.find("--trace-nodes"), std::string::npos);
}

TEST(ProvenanceDoctor, BlameNamesThePlantedSpoofers) {
  const auto data = byz_prov(21);
  const auto report = obs::diagnose_blame(data);
  ASSERT_FALSE(report.ranking.empty());
  // Every ranked node is a planted Spoofer (the engine attributes spoof
  // rejections to the TRUE transport origin, not the claimed sender).
  for (const obs::BlameEntry& e : report.ranking) {
    EXPECT_TRUE(e.node == 1 || e.node == 7 || e.node == 23)
        << "blamed node " << e.node << " was not planted";
  }
  std::uint64_t spoof_bits = 0;
  for (const obs::BlameEntry& e : report.ranking) spoof_bits += e.spoof_bits;
  EXPECT_GT(spoof_bits, 0u) << "Spoofer forgeries must surface in blame";
  EXPECT_FALSE(report.explanation.empty());
}

}  // namespace
}  // namespace renaming
