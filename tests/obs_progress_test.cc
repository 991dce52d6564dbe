// Live-observability layer: heartbeat, shard profiler, metric edges
// (docs/OBSERVABILITY.md §8).
//
// Three contracts are pinned here:
//   * instrument edges — LogHistogram::percentile on zero observations,
//     a saturated single bucket and a 1-sample series; MetricsRegistry
//     address stability and ordered export; the RoundRing flight-recorder
//     policy behind Telemetry::set_per_round_capacity;
//   * the Progress heartbeat itself — round cadence, the closing
//     catch-up sample, ring overwrite, the deterministic_only
//     projection of write_record, and a peak RSS that honours the
//     per-cell high-water-mark reset;
//   * the house determinism contract — a run with a Progress heartbeat
//     AND a ShardProfile attached produces byte-identical traces,
//     journals and RunStats to the bare run at every shard count, and
//     the heartbeat's deterministic projection (round, events, active
//     set, crashes) is itself byte-identical across thread counts and
//     matches a pin recorded from the retired dense engine layout. Wall
//     time never leaks into deterministic output.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "digest.h"
#include "json_check.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/rss.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/observers.h"
#include "sim/parallel/worker_pool.h"
#include "sim/trace.h"

namespace renaming {
namespace {

// --- LogHistogram percentile edges ---------------------------------------

TEST(LogHistogram, PercentileOfEmptyHistogramIsZero) {
  obs::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(LogHistogram, SingleSampleOwnsEveryPercentile) {
  obs::LogHistogram h;
  h.add(100);  // bit_width 7 -> bucket 7, lower edge 64
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 64u) << "q=" << q;
  }
}

TEST(LogHistogram, SaturatedSingleBucketReportsItsLowerEdge) {
  obs::LogHistogram h;
  for (int i = 0; i < 100000; ++i) h.add(5);  // all in bucket 3, edge 4
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.percentile(0.5), 4u);
  EXPECT_EQ(h.percentile(0.99), 4u);
  EXPECT_EQ(h.percentile(1.0), 4u);
}

TEST(LogHistogram, ZeroValuesLandInTheZeroBucket) {
  obs::LogHistogram h;
  h.add(0);
  h.add(0);
  EXPECT_EQ(h.percentile(1.0), 0u);
  EXPECT_EQ(h.bucket(0), 2u);
}

TEST(LogHistogram, PercentileWalksBucketsCumulatively) {
  obs::LogHistogram h;
  h.add(1);                            // bucket 1, edge 1
  for (int i = 0; i < 9; ++i) h.add(1500);  // bucket 11, edge 1024
  // 10 samples: target(q) = floor(q * 9) + 1 crossings.
  EXPECT_EQ(h.percentile(0.0), 1u);    // target 1: the lone small sample
  EXPECT_EQ(h.percentile(0.5), 1024u); // target 5: inside the big bucket
  EXPECT_EQ(h.percentile(1.0), 1024u);
  // Out-of-range q clamps instead of reading past the series.
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistry, InstrumentAddressesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter* c = &registry.counter("events");
  c->add(3);
  registry.histogram("sizes").add(7);  // unrelated growth
  EXPECT_EQ(&registry.counter("events"), c);
  EXPECT_EQ(registry.counter("events").value(), 3u);
}

TEST(MetricsRegistry, ExportsInstrumentsInNameOrder) {
  obs::MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.counter("mid");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// --- RoundRing / Telemetry per-round cap ---------------------------------

TEST(RoundRing, KeepsTheLastKEntriesAndCountsDrops) {
  obs::RoundRing<int> ring;
  ring.set_capacity(3);
  for (int r = 1; r <= 5; ++r) ring.push_back(r * 10);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{30, 40, 50}));
  // Entry i is round dropped() + i + 1: the journal's ring convention.
  EXPECT_EQ(ring.dropped() + 0 + 1, 3u);
}

TEST(RoundRing, CapacityZeroIsUnbounded) {
  obs::RoundRing<int> ring;
  for (int r = 0; r < 1000; ++r) ring.push_back(r);
  EXPECT_EQ(ring.size(), 1000u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Telemetry, PerRoundCapBoundsBothSeries) {
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 21);
  obs::Telemetry capped;
  capped.set_per_round_capacity(4);
  obs::Telemetry full;
  crash::CrashParams params;
  const auto run_with = [&](obs::Telemetry* telemetry) {
    return crash::run_crash_renaming(
        cfg, params, nullptr, {.telemetry = telemetry});
  };
  const auto a = run_with(&capped);
  const auto b = run_with(&full);
  ASSERT_EQ(a.stats, b.stats);
  ASSERT_GT(full.per_round_active_senders().size(), 4u)
      << "run too short to exercise the cap";
  EXPECT_EQ(capped.per_round_active_senders().size(), 4u);
  EXPECT_EQ(capped.per_round_wall_ns().size(), 4u);
  EXPECT_GT(capped.per_round_dropped(), 0u);
  EXPECT_EQ(full.per_round_dropped(), 0u);
  // The capped ring holds exactly the tail of the uncapped series.
  const auto full_active = full.per_round_active_senders();
  const std::vector<std::uint32_t> tail(full_active.end() - 4,
                                        full_active.end());
  EXPECT_EQ(capped.per_round_active_senders(), tail);
}

// --- Progress heartbeat --------------------------------------------------

TEST(Progress, RoundCadenceSamplesEveryKthRoundPlusTheFinal) {
  obs::Progress::Options opts;
  opts.every_rounds = 3;
  opts.ring_capacity = 0;
  obs::Progress progress(opts);
  progress.begin_run(16);
  for (Round r = 1; r <= 7; ++r) {
    progress.on_round_end(r, r * 100, r * 1000, 16 - r, r, 16);
  }
  progress.end_run(7);
  const auto snaps = progress.snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].round, 3u);
  EXPECT_EQ(snaps[1].round, 6u);
  EXPECT_EQ(snaps[2].round, 7u);  // catch-up: the cadence missed round 7
  EXPECT_EQ(snaps[2].messages, 700u);
  EXPECT_EQ(snaps[2].bits, 7000u);
  // The closing sample reports an empty active set by convention.
  EXPECT_EQ(snaps[2].active_senders, 0u);
  EXPECT_EQ(progress.sampled(), 3u);
}

TEST(Progress, RingOverwriteKeepsTheMostRecentSamples) {
  obs::Progress::Options opts;
  opts.ring_capacity = 2;
  obs::Progress progress(opts);
  progress.begin_run(8);
  for (Round r = 1; r <= 5; ++r) {
    progress.on_round_end(r, r, r, 8, 0, 8);
  }
  progress.end_run(5);
  const auto snaps = progress.snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].round, 4u);
  EXPECT_EQ(snaps[1].round, 5u);
  EXPECT_EQ(progress.sampled(), 5u);
  EXPECT_EQ(progress.ring_dropped(), 3u);
}

TEST(Progress, WriteRecordDeterministicProjectionDropsMeasuredFields) {
  obs::ProgressSnapshot s;
  s.round = 9;
  s.messages = 123;
  s.bits = 456;
  s.active_senders = 7;
  s.crashes = 2;
  s.outbox_live = 99;
  s.wall_ns = 1000;
  s.round_wall_ns = 100;
  s.peak_rss_bytes = 4096;
  s.events_per_sec = 5.5;
  std::ostringstream full;
  obs::Progress::write_record(full, s);
  EXPECT_NE(full.str().find("\"outboxes\":99"), std::string::npos);
  EXPECT_NE(full.str().find("\"wall_ns\":1000"), std::string::npos);
  std::ostringstream det;
  obs::Progress::write_record(det, s, /*deterministic_only=*/true);
  EXPECT_EQ(det.str(),
            "{\"round\":9,\"messages\":123,\"bits\":456,\"active\":7,"
            "\"crashes\":2}\n");
}

TEST(Progress, SinkReceivesHeaderEverySampleAndDoneLine) {
  std::ostringstream out;
  obs::Progress progress;
  progress.set_sink(&out);
  sim::Observers{.progress = &progress}.begin("unit", 4, 0);
  progress.begin_run(4);
  progress.on_round_end(1, 10, 100, 4, 0, 4);
  progress.end_run(1);
  const std::string text = out.str();
  EXPECT_TRUE(json_check::IsJsonLines(text));
  EXPECT_NE(text.find("\"schema\":\"renaming-progress-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"algorithm\":\"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"round\":1"), std::string::npos);
  EXPECT_NE(text.find("\"done\":true"), std::string::npos);
}

TEST(Progress, HeartbeatPeakRssIsMeasuredAndFollowsThePerCellReset) {
  // Touch 64 MiB outside the allocator (so no allocator cache keeps it
  // resident), release it, then reset the high-water mark the way the
  // bench harnesses do before each cell.
  constexpr std::size_t kBig = std::size_t{64} << 20;
  void* big = mmap(nullptr, kBig, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(big, MAP_FAILED);
  std::memset(big, 1, kBig);
  munmap(big, kBig);
  const std::uint64_t before_reset = obs::peak_rss_bytes();
  ASSERT_GE(before_reset, kBig);

  std::ostringstream out;
  obs::Progress progress;
  progress.set_sink(&out);
  progress.begin_run(4);
  progress.on_round_end(1, 10, 100, 4, 0, 4);
  progress.end_run(1);
  ASSERT_EQ(progress.snapshots().size(), 1u);
  const obs::ProgressSnapshot s = progress.snapshots().front();
  EXPECT_GT(s.peak_rss_bytes, 0u);
  EXPECT_EQ(out.str().find("\"peak_rss_bytes\":0"), std::string::npos);
  // The field is measured: the deterministic projection leaves it out.
  std::ostringstream det;
  obs::Progress::write_record(det, s, /*deterministic_only=*/true);
  EXPECT_EQ(det.str().find("peak_rss"), std::string::npos);

  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) {
    GTEST_SKIP() << "no /proc/self/clear_refs: the peak cannot be reset";
  }
  obs::Progress after;
  after.begin_run(4);
  after.on_round_end(1, 10, 100, 4, 0, 4);
  ASSERT_EQ(after.snapshots().size(), 1u);
  const std::uint64_t cell_peak = after.snapshots().front().peak_rss_bytes;
  EXPECT_GT(cell_peak, 0u);
  EXPECT_LT(cell_peak + kBig / 2, before_reset)
      << "the heartbeat must read the reset peak, not the lifetime one";
  // Same reader as the bench harnesses: no peak from before the reset, nor
  // from the image this process was exec'd from, can raise the value.
  EXPECT_LE(cell_peak, obs::peak_rss_bytes());
}

// --- ShardProfile: aggregation, metrics, binary format -------------------

TEST(ShardProfile, AggregatesPerPhaseTotalsAndDerivedMetrics) {
  obs::ShardProfile profile;
  sim::Observers{.plan = {.profile = &profile}}.begin("unit", 100, 0);
  profile.begin_run(100, 2);
  profile.on_round_begin(1);
  profile.note_shard(obs::ShardPhase::kSend, 0, 100, 200);
  profile.note_shard(obs::ShardPhase::kSend, 1, 300, 0);
  profile.note_serial(obs::ShardPhase::kDeliver, 40);
  profile.on_round_end(1);
  profile.end_run(1);

  const obs::ShardProfileData& data = profile.data();
  EXPECT_EQ(data.algorithm, "unit");
  EXPECT_EQ(data.n, 100u);
  EXPECT_EQ(data.shards, 2u);
  EXPECT_EQ(data.rounds, 1u);
  const auto& send =
      data.totals[static_cast<std::size_t>(obs::ShardPhase::kSend)];
  ASSERT_EQ(send.size(), 2u);
  EXPECT_EQ(send[0].busy_ns, 100);
  EXPECT_EQ(send[0].wait_ns, 200);
  EXPECT_EQ(send[1].busy_ns, 300);
  // Imbalance: max busy over mean busy = 300 / 200.
  EXPECT_DOUBLE_EQ(obs::shard_imbalance(data, obs::ShardPhase::kSend), 1.5);
  // Barrier share counts parallel phases only: 200 / (400 + 200).
  EXPECT_NEAR(obs::barrier_wait_share(data), 200.0 / 600.0, 1e-12);
  EXPECT_EQ(obs::straggler_shard(data), 1u);
  // The serial deliver lane accumulates on shard 0 and never waits.
  const auto& deliver =
      data.totals[static_cast<std::size_t>(obs::ShardPhase::kDeliver)];
  EXPECT_EQ(deliver[0].busy_ns, 40);
  EXPECT_EQ(deliver[0].wait_ns, 0);
}

TEST(ShardProfile, SampleRingDropsOldRoundsButKeepsTotals) {
  obs::ShardProfile::Options opts;
  opts.ring_capacity = 2;
  obs::ShardProfile profile(opts);
  profile.begin_run(10, 1);
  for (Round r = 1; r <= 3; ++r) {
    profile.on_round_begin(r);
    profile.note_shard(obs::ShardPhase::kSend, 0, 10, 0);
    profile.on_round_end(r);
  }
  profile.end_run(3);
  EXPECT_EQ(profile.data().samples.size(), 2u);
  EXPECT_EQ(profile.data().dropped_samples, 1u);
  EXPECT_EQ(profile.data().samples[0].round, 2u);
  EXPECT_EQ(profile.data().samples[1].round, 3u);
  const auto& send = profile.data()
      .totals[static_cast<std::size_t>(obs::ShardPhase::kSend)];
  EXPECT_EQ(send[0].busy_ns, 30);  // totals cover all three rounds
}

TEST(ShardProfile, BinaryFormatRoundTrips) {
  obs::ShardProfile profile;
  sim::Observers{.plan = {.profile = &profile}}.begin("roundtrip", 64, 0);
  profile.begin_run(64, 3);
  for (Round r = 1; r <= 4; ++r) {
    profile.on_round_begin(r);
    for (unsigned s = 0; s < 3; ++s) {
      profile.note_shard(obs::ShardPhase::kSend, s, 100 * (s + 1), 10 * s);
      profile.note_shard(obs::ShardPhase::kReceive, s, 7 * (s + 1), s);
    }
    profile.note_serial(obs::ShardPhase::kDeliver, 55);
    profile.note_serial(obs::ShardPhase::kMerge, 5);
    profile.on_round_end(r);
  }
  profile.end_run(4);

  std::stringstream buffer;
  obs::write_shard_profile_binary(buffer, profile.data());
  obs::ShardProfileData loaded;
  std::string error;
  ASSERT_TRUE(obs::read_shard_profile_binary(buffer, &loaded, &error))
      << error;
  EXPECT_EQ(loaded.algorithm, "roundtrip");
  EXPECT_EQ(loaded.n, 64u);
  EXPECT_EQ(loaded.shards, 3u);
  EXPECT_EQ(loaded.rounds, 4u);
  EXPECT_EQ(loaded.dropped_samples, 0u);
  ASSERT_EQ(loaded.samples.size(), 4u);
  for (std::size_t p = 0; p < obs::kShardPhaseCount; ++p) {
    ASSERT_EQ(loaded.totals[p].size(), profile.data().totals[p].size());
    for (std::size_t s = 0; s < loaded.totals[p].size(); ++s) {
      EXPECT_EQ(loaded.totals[p][s], profile.data().totals[p][s]);
    }
  }
  EXPECT_EQ(loaded.samples[2].round, profile.data().samples[2].round);
  EXPECT_EQ(loaded.samples[2].busy_ns, profile.data().samples[2].busy_ns);
  EXPECT_EQ(loaded.samples[2].wait_ns, profile.data().samples[2].wait_ns);
  // The derived metrics survive the trip too.
  EXPECT_DOUBLE_EQ(obs::barrier_wait_share(loaded),
                   obs::barrier_wait_share(profile.data()));
  // And the doctor's report renders from the loaded copy.
  const std::string report = obs::describe_shard_profile(loaded);
  EXPECT_NE(report.find("roundtrip"), std::string::npos);
  EXPECT_NE(report.find("barrier_wait_share"), std::string::npos);
}

// --- the determinism contract, end to end --------------------------------

struct Artifacts {
  std::string trace;
  std::string journal;
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  std::string progress_det;  ///< deterministic projection of the heartbeat
};

std::string deterministic_projection(const obs::Progress& progress) {
  std::ostringstream out;
  for (const obs::ProgressSnapshot& s : progress.snapshots()) {
    obs::Progress::write_record(out, s, /*deterministic_only=*/true);
  }
  return out.str();
}

// One crash run under a mid-send CommitteeHunter (the adversary-heavy
// path), with or without the live-observability pair attached.
Artifacts run_crash(sim::parallel::ShardPlan plan, bool live) {
  const NodeIndex n = 128;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 77);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      20, crash::CommitteeHunter::Mode::kMidResponse, 77, 0.5);
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  obs::Progress::Options popts;
  popts.ring_capacity = 0;  // keep every sample; the runs are short
  obs::Progress progress(popts);
  obs::ShardProfile profile;
  if (live) plan.profile = &profile;
  const auto r = crash::run_crash_renaming(
      cfg, params, std::move(adversary),
      {.trace = &trace,
       .journal = &journal,
       .progress = live ? &progress : nullptr,
       .plan = plan});
  std::ostringstream journal_out;
  obs::write_journal_binary(journal_out, journal.data());
  if (live) {
    EXPECT_EQ(profile.data().rounds, r.stats.rounds);
    EXPECT_EQ(progress.sampled(), r.stats.rounds);
  }
  return Artifacts{trace_out.str(), journal_out.str(), r.stats, r.outcomes,
                   deterministic_projection(progress)};
}

TEST(LiveObservability, ProfiledRunIsByteIdenticalToBareRun) {
  const Artifacts bare = run_crash({}, /*live=*/false);
  ASSERT_GT(bare.stats.crashes, 0u);
  ASSERT_FALSE(bare.trace.empty());
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : {0u, 1u, 2u, 8u}) {
    sim::parallel::ShardPlan plan;
    if (shards > 0) {
      plan.pool = &pool;
      plan.shards = shards;
    }
    const Artifacts live = run_crash(plan, /*live=*/true);
    EXPECT_EQ(bare.trace, live.trace)
        << "heartbeat/profiler perturbed the trace at K=" << shards;
    EXPECT_EQ(bare.journal, live.journal)
        << "heartbeat/profiler perturbed the journal at K=" << shards;
    EXPECT_EQ(bare.stats, live.stats)
        << "heartbeat/profiler perturbed RunStats at K=" << shards;
  }
}

TEST(LiveObservability, HeartbeatProjectionIsIdenticalAcrossThreadCounts) {
  const Artifacts serial = run_crash({}, /*live=*/true);
  ASSERT_FALSE(serial.progress_det.empty());
  EXPECT_TRUE(json_check::IsJsonLines(serial.progress_det));
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : {1u, 2u, 8u}) {
    sim::parallel::ShardPlan plan;
    plan.pool = &pool;
    plan.shards = shards;
    const Artifacts parallel = run_crash(plan, /*live=*/true);
    EXPECT_EQ(serial.progress_det, parallel.progress_det)
        << "deterministic heartbeat fields diverged at K=" << shards;
  }
}

// Recorded from the retired dense engine layout before the sparse layout
// became the only one (tests/dense_reference_pins_test.cc): the heartbeat's
// deterministic projection is layout-independent, so no measured or
// layout-dependent field may leak into it.
TEST(LiveObservability, HeartbeatProjectionMatchesDenseReferencePin) {
  const Artifacts a = run_crash({}, /*live=*/true);
  expect_pin({fnv1a(a.trace), fnv1a(a.journal), run_digest(a.stats, a.outcomes),
              fnv1a(a.progress_det)},
             {5641220180203365453ull, 1344840486187522112ull,
              13050478779517314994ull, 8040629698489115219ull},
             "for the heartbeat run");
}

}  // namespace
}  // namespace renaming
