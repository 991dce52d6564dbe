// Shard-parallel engine equivalence suite (docs/PERFORMANCE.md §9).
//
// The contract of sim::parallel::ShardPlan is byte-identity: running the
// engine's send/receive callbacks across K shards on a worker pool must
// produce EXACTLY the serial execution — same golden trace bytes, same
// flight-recorder journal fingerprint stream, same RunStats, same
// telemetry per-kind ledgers — for every K, because everything
// order-sensitive (adversary, delivery, accounting, observers) stays on
// the caller thread and per-shard scratch folds in fixed shard order.
// These tests pin that contract on the four engine paths with different
// delivery shapes:
//   * crash renaming under a mid-send CommitteeHunter (outbox expansion,
//     partial delivery, the adversary's keep-index slow path);
//   * Byzantine renaming with Spoofer nodes (authentication rejections in
//     the delivery sweep — spoofs_rejected is asserted nonzero);
//   * Byzantine renaming in the full-vector ablation (A2) under
//     SplitReporter and LyingMember nodes (VECTOR blobs owned by the
//     corrupted nodes' staged outboxes, read by every shard's receivers);
//   * the CHT baseline (untraced broadcast-only rounds: the shared-inbox
//     fast path).
// Plus the same four with every observer attached (trace, journal,
// telemetry, provenance, progress, shard profile), which must not change
// K or the delivery path and must record what K = 1 records; the
// RNG-stream pin (outcomes identical across K — shard count must not
// perturb any node's PRNG); and death tests for the plan/pool misuse
// checks.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cht_crash.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/parallel/shard.h"
#include "sim/parallel/worker_pool.h"
#include "sim/trace.h"

namespace renaming {
namespace {

// Shard counts exercised against the serial run. 3 gives an uneven split
// of the 256-node systems below; 8 exceeds the pool width, exercising the
// claim-queue path.
const unsigned kShardCounts[] = {1, 2, 3, 8};

sim::parallel::ShardPlan plan_for(sim::parallel::WorkerPool* pool,
                                  unsigned shards) {
  sim::parallel::ShardPlan plan;
  plan.pool = pool;
  plan.shards = shards;
  return plan;
}

struct Artifacts {
  std::string trace;
  std::string journal;
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  std::string provenance;  ///< RNPV bytes; empty unless fully observed
  std::string telemetry;   ///< telemetry_digest; empty unless fully observed
};

// The deterministic part of a telemetry recording: the per-kind ledgers,
// the spans and instants in recording order, and the inbox histogram.
std::string telemetry_digest(const obs::Telemetry& tel) {
  std::ostringstream out;
  for (unsigned kind = 0; kind < 256; ++kind) {
    const auto k = static_cast<sim::MsgKind>(kind);
    if (tel.kind_messages(k) == 0) continue;
    out << "kind " << kind << " " << tel.kind_messages(k) << " "
        << tel.kind_bits(k) << "\n";
  }
  for (const obs::PhaseSpan& sp : tel.spans()) {
    out << "span " << sp.node << " " << static_cast<unsigned>(sp.phase) << " "
        << sp.begin_round << " " << sp.end_round << "\n";
  }
  for (const obs::Instant& in : tel.instants()) {
    out << "instant " << static_cast<unsigned>(in.kind) << " " << in.round
        << " " << in.node << " " << in.msg_kind << "\n";
  }
  const obs::LogHistogram& inbox =
      *tel.registry().histograms().at("inbox_occupancy");
  out << "inbox " << inbox.count() << " " << inbox.sum();
  for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
    out << " " << inbox.bucket(b);
  }
  return out.str();
}

// What one scenario run records. Every run carries a trace and a journal;
// `all` also attaches telemetry, provenance, a heartbeat and a shard
// profile.
struct Recorders {
  explicit Recorders(bool everything) : all(everything) {}

  sim::Observers bundle(sim::parallel::ShardPlan plan, bool traced = true) {
    plan.profile = all ? &profile : nullptr;
    return {.trace = traced ? &trace : nullptr,
            .telemetry = all ? &telemetry : nullptr,
            .journal = &journal,
            .progress = all ? &progress : nullptr,
            .provenance = all ? &provenance : nullptr,
            .plan = plan};
  }

  Artifacts artifacts(const sim::RunStats& stats,
                      const std::vector<NodeOutcome>& outcomes) const {
    std::ostringstream journal_out;
    obs::write_journal_binary(journal_out, journal.data());
    Artifacts a{trace_out.str(), journal_out.str(), stats, outcomes, {}, {}};
    if (all) {
      std::ostringstream prov_out;
      obs::write_provenance_binary(prov_out, provenance.data());
      a.provenance = prov_out.str();
      a.telemetry = telemetry_digest(telemetry);
    }
    return a;
  }

  bool all;
  std::ostringstream trace_out;
  sim::JsonlTrace trace{trace_out};
  obs::Journal journal;
  obs::Telemetry telemetry;
  obs::Provenance provenance;
  obs::Progress progress;
  obs::ShardProfile profile;
};

void expect_identical(const Artifacts& serial, const Artifacts& parallel,
                      unsigned shards) {
  EXPECT_EQ(serial.trace, parallel.trace)
      << "golden trace bytes diverged at K=" << shards;
  EXPECT_EQ(serial.journal, parallel.journal)
      << "journal fingerprint stream diverged at K=" << shards;
  EXPECT_EQ(serial.provenance, parallel.provenance)
      << "provenance bytes diverged at K=" << shards;
  EXPECT_EQ(serial.telemetry, parallel.telemetry)
      << "telemetry ledgers, spans, instants or inbox histogram diverged "
         "at K="
      << shards;
  EXPECT_EQ(serial.stats, parallel.stats) << "RunStats diverged at K="
                                          << shards;
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t v = 0; v < serial.outcomes.size(); ++v) {
    EXPECT_EQ(serial.outcomes[v].original_id, parallel.outcomes[v].original_id);
    EXPECT_EQ(serial.outcomes[v].new_id, parallel.outcomes[v].new_id)
        << "node " << v << " decided differently at K=" << shards
        << " — a shard-count change perturbed its RNG stream";
    EXPECT_EQ(serial.outcomes[v].correct, parallel.outcomes[v].correct);
  }
}

// --- crash renaming under mid-send crashes -------------------------------

Artifacts run_crash(sim::parallel::ShardPlan plan, bool all = false) {
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 77);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      40, crash::CommitteeHunter::Mode::kMidResponse, 77, 0.5);
  Recorders rec(all);
  const auto r = crash::run_crash_renaming(cfg, params, std::move(adversary),
                                           rec.bundle(plan));
  return rec.artifacts(r.stats, r.outcomes);
}

TEST(ParallelEquivalence, CrashMidSendIsByteIdenticalAtAnyShardCount) {
  const Artifacts serial = run_crash({});
  ASSERT_GT(serial.stats.crashes, 0u)
      << "the adversary never fired; the mid-send path went unexercised";
  ASSERT_FALSE(serial.trace.empty());
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : kShardCounts) {
    expect_identical(serial, run_crash(plan_for(&pool, shards)), shards);
  }
}

// --- Byzantine renaming with spoof rejections ----------------------------

Artifacts run_byz(sim::parallel::ShardPlan plan, bool all = false) {
  const NodeIndex n = 144;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 91);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 91;
  Recorders rec(all);
  const auto r = byzantine::run_byz_renaming(
      cfg, params, {3, 50, 97, 120}, &byzantine::Spoofer::make, 0,
      rec.bundle(plan));
  return rec.artifacts(r.stats, r.outcomes);
}

TEST(ParallelEquivalence, ByzantineSpoofingIsByteIdenticalAtAnyShardCount) {
  const Artifacts serial = run_byz({});
  ASSERT_GT(serial.stats.spoofs_rejected, 0u)
      << "no spoofs rejected; the authentication path went unexercised";
  ASSERT_FALSE(serial.trace.empty());
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : kShardCounts) {
    expect_identical(serial, run_byz(plan_for(&pool, shards)), shards);
  }
}

// --- Ablation A2 under corrupted members: outbox-owned blobs ------------

// Byzantine nodes of the full-vector runs: with pool_constant 4 at n = 144
// several of them sit on the committee, so their staged outboxes own the
// VECTOR blobs that every correct member reads in the same round.
const std::vector<NodeIndex> kFullVectorByzantine = {3, 17, 50, 64, 97, 120};

Artifacts run_byz_full_vectors(sim::parallel::ShardPlan plan,
                               byzantine::ByzStrategyFactory factory,
                               bool all = false) {
  const NodeIndex n = 144;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 93);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 93;
  params.use_fingerprints = false;
  Recorders rec(all);
  const auto r = byzantine::run_byz_renaming(
      cfg, params, kFullVectorByzantine, factory, 0, rec.bundle(plan));
  EXPECT_TRUE(r.report.ok(/*require_order=*/false))
      << (r.report.violations.empty() ? "" : r.report.violations[0]);
  return rec.artifacts(r.stats, r.outcomes);
}

// True when some Byzantine node's VECTOR blob reached the wire, i.e. a
// corrupted committee member forwarded a message whose payload its staged
// outbox owns.
bool byzantine_sent_vector(const std::string& trace) {
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"kind_name\":\"VECTOR\"") == std::string::npos) continue;
    for (NodeIndex b : kFullVectorByzantine) {
      if (line.find("\"from\":" + std::to_string(b) + ",") !=
          std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

TEST(ParallelEquivalence,
     ByzantineFullVectorBlobsAreByteIdenticalAtAnyShardCount) {
  sim::parallel::WorkerPool pool(4);
  for (byzantine::ByzStrategyFactory factory :
       {&byzantine::SplitReporter::make, &byzantine::LyingMember::make}) {
    const Artifacts serial = run_byz_full_vectors({}, factory);
    ASSERT_TRUE(byzantine_sent_vector(serial.trace))
        << "no corrupted member shipped a VECTOR blob; the staged-outbox "
           "ownership path went unexercised";
    for (unsigned shards : kShardCounts) {
      expect_identical(serial,
                       run_byz_full_vectors(plan_for(&pool, shards), factory),
                       shards);
    }
  }
}

// --- CHT baseline: the shared-inbox broadcast fast path ------------------

Artifacts run_cht(sim::parallel::ShardPlan plan, bool all = false) {
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 55);
  Recorders rec(all);
  const auto r = baselines::run_cht_renaming(
      cfg, nullptr, /*closed_form_cutoff=*/0,
      rec.bundle(plan, /*traced=*/all));
  return rec.artifacts(r.stats, r.outcomes);
}

TEST(ParallelEquivalence, ChtBroadcastFastPathIsByteIdenticalAtAnyShardCount) {
  const Artifacts serial = run_cht({});
  ASSERT_FALSE(serial.journal.empty());
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : kShardCounts) {
    expect_identical(serial, run_cht(plan_for(&pool, shards)), shards);
  }
}

// --- every observer attached ---------------------------------------------

TEST(ParallelEquivalence, FullyObservedRunsMatchSerialAtAnyShardCount) {
  // With every observer attached the callbacks still run on K shards:
  // PhaseScope spans, the engine's inbox samples and provenance events go
  // to the calling shard's slot and fold in shard order, so every
  // recording equals the planless run's at each K.
  sim::parallel::WorkerPool pool(4);
  const auto check = [&](const char* scenario, auto&& run) {
    SCOPED_TRACE(scenario);
    const Artifacts serial = run(sim::parallel::ShardPlan{});
    ASSERT_FALSE(serial.provenance.empty());
    ASSERT_NE(serial.telemetry.find("kind "), std::string::npos);
    // The paper protocols open PhaseScopes; the CHT baseline does not.
    ASSERT_EQ(serial.telemetry.find("span ") != std::string::npos,
              std::string(scenario) != "cht");
    for (unsigned shards : kShardCounts) {
      expect_identical(serial, run(plan_for(&pool, shards)), shards);
    }
  };
  check("crash", [](auto plan) { return run_crash(plan, true); });
  check("byz", [](auto plan) { return run_byz(plan, true); });
  for (byzantine::ByzStrategyFactory factory :
       {&byzantine::SplitReporter::make, &byzantine::LyingMember::make}) {
    check("byz full vectors", [&](auto plan) {
      return run_byz_full_vectors(plan, factory, true);
    });
  }
  check("cht", [](auto plan) { return run_cht(plan, true); });
}

// --- telemetry ledgers under a plan --------------------------------------

TEST(ParallelEquivalence, TelemetryKindLedgersMatchSerialUnderAPlan) {
  // A live telemetry recorder runs on the plan's shards like any other
  // observer; the observable contract is that attaching a plan changes
  // nothing: every per-kind message/bit ledger matches the planless run
  // exactly.
  const NodeIndex n = 192;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 33);
  crash::CrashParams params;
  params.election_constant = 3.0;
  const auto run_with = [&](sim::parallel::ShardPlan plan,
                            obs::Telemetry* telemetry) {
    auto adversary = std::make_unique<crash::CommitteeHunter>(
        24, crash::CommitteeHunter::Mode::kMidResponse, 33, 0.5);
    return crash::run_crash_renaming(
        cfg, params, std::move(adversary),
        {.telemetry = telemetry, .plan = plan});
  };
  obs::Telemetry serial_tel;
  const auto serial = run_with({}, &serial_tel);
  sim::parallel::WorkerPool pool(4);
  obs::Telemetry parallel_tel;
  const auto parallel = run_with(plan_for(&pool, 8), &parallel_tel);
  EXPECT_EQ(serial.stats, parallel.stats);
  for (unsigned kind = 0; kind < 64; ++kind) {
    const auto k = static_cast<sim::MsgKind>(kind);
    EXPECT_EQ(serial_tel.kind_messages(k), parallel_tel.kind_messages(k))
        << "per-kind message ledger diverged for kind " << kind;
    EXPECT_EQ(serial_tel.kind_bits(k), parallel_tel.kind_bits(k))
        << "per-kind bit ledger diverged for kind " << kind;
  }
}

// --- worker pool laggard drain -------------------------------------------

// Back-to-back tiny jobs maximize the laggard window: a worker whose
// condvar wakeup lands after the caller has already drained the cursor
// joins its epoch late, possibly after run() returned, and the *next*
// publication must drain it (active_ == 0) before resetting the cursor.
// Without that drain a laggard could pair the previous job's lambda —
// already destroyed on the caller's stack — with the fresh cursor:
// use-after-scope and a silently lost task in the new job. The window is
// a narrow OS-scheduling artifact, so this stress is probabilistic, not a
// deterministic pin — it needs real parallelism to fire and earns its
// keep on the multi-core TSan CI job (stack-reuse race report, or the
// per-run count assertion below). The oversubscribed width keeps parked
// workers plentiful so wakeups routinely land late.
TEST(ParallelEquivalence, WorkerPoolBackToBackRunsLoseNoTasks) {
  sim::parallel::WorkerPool pool(8);
  for (int iter = 0; iter < 20000; ++iter) {
    std::atomic<int> ran{0};
    // >= 2 tasks so the pool path runs (1 task degrades to an inline loop).
    const std::size_t tasks = 2 + static_cast<std::size_t>(iter % 7);
    pool.run(tasks,
             [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(ran.load(), static_cast<int>(tasks)) << "iteration " << iter;
  }
}

// --- misuse checks -------------------------------------------------------

TEST(ParallelEquivalenceDeathTest, PartitionRejectsZeroShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(sim::parallel::Partition(16, 0),
               "at least one shard");
}

TEST(ParallelEquivalenceDeathTest, WorkerPoolRunIsNotReentrant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::parallel::WorkerPool pool(2);
        // Nest only from the calling thread: the reentrancy guard is a
        // caller-side flag. A helper that claims a task first parks until
        // the caller has claimed one of its own, so the caller reaches the
        // nested run() under every scheduler interleaving (on a one-core
        // host the helper can otherwise drain every task before the
        // caller's claim loop starts).
        const auto caller = std::this_thread::get_id();
        std::atomic<bool> caller_claimed{false};
        pool.run(64, [&](std::size_t) {
          if (std::this_thread::get_id() == caller) {
            caller_claimed.store(true);
            pool.run(2, [](std::size_t) {});
          } else {
            while (!caller_claimed.load()) std::this_thread::yield();
          }
        });
      },
      "not reentrant");
}

}  // namespace
}  // namespace renaming
