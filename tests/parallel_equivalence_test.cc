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
// Plus the RNG-stream pin (outcomes identical across K — shard count must
// not perturb any node's PRNG) and death tests for the plan/pool misuse
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
};

void expect_identical(const Artifacts& serial, const Artifacts& parallel,
                      unsigned shards) {
  EXPECT_EQ(serial.trace, parallel.trace)
      << "golden trace bytes diverged at K=" << shards;
  EXPECT_EQ(serial.journal, parallel.journal)
      << "journal fingerprint stream diverged at K=" << shards;
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

std::string journal_bytes(const obs::Journal& journal) {
  std::ostringstream out;
  obs::write_journal_binary(out, journal.data());
  return out.str();
}

// --- crash renaming under mid-send crashes -------------------------------

Artifacts run_crash(sim::parallel::ShardPlan plan) {
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 77);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      40, crash::CommitteeHunter::Mode::kMidResponse, 77, 0.5);
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  const auto r = crash::run_crash_renaming(
      cfg, params, std::move(adversary),
      {.trace = &trace, .journal = &journal, .plan = plan});
  return Artifacts{trace_out.str(), journal_bytes(journal), r.stats,
                   r.outcomes};
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

Artifacts run_byz(sim::parallel::ShardPlan plan) {
  const NodeIndex n = 144;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 91);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 91;
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  const auto r = byzantine::run_byz_renaming(
      cfg, params, {3, 50, 97, 120}, &byzantine::Spoofer::make, 0,
      {.trace = &trace, .journal = &journal, .plan = plan});
  return Artifacts{trace_out.str(), journal_bytes(journal), r.stats,
                   r.outcomes};
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
                               byzantine::ByzStrategyFactory factory) {
  const NodeIndex n = 144;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 93);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 93;
  params.use_fingerprints = false;
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  const auto r = byzantine::run_byz_renaming(
      cfg, params, kFullVectorByzantine, factory, 0,
      {.trace = &trace, .journal = &journal, .plan = plan});
  EXPECT_TRUE(r.report.ok(/*require_order=*/false))
      << (r.report.violations.empty() ? "" : r.report.violations[0]);
  return Artifacts{trace_out.str(), journal_bytes(journal), r.stats,
                   r.outcomes};
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

Artifacts run_cht(sim::parallel::ShardPlan plan) {
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 55);
  obs::Journal journal;
  const auto r = baselines::run_cht_renaming(
      cfg, nullptr, /*closed_form_cutoff=*/0,
      {.journal = &journal, .plan = plan});
  return Artifacts{std::string(), journal_bytes(journal), r.stats,
                   r.outcomes};
}

TEST(ParallelEquivalence, ChtBroadcastFastPathIsByteIdenticalAtAnyShardCount) {
  const Artifacts serial = run_cht({});
  ASSERT_FALSE(serial.journal.empty());
  sim::parallel::WorkerPool pool(4);
  for (unsigned shards : kShardCounts) {
    expect_identical(serial, run_cht(plan_for(&pool, shards)), shards);
  }
}

// --- telemetry ledgers under a plan --------------------------------------

TEST(ParallelEquivalence, TelemetryKindLedgersMatchSerialUnderAPlan) {
  // A live telemetry recorder makes the engine run its callbacks serial
  // (PhaseScope inside node code writes shared state); the observable
  // contract is that attaching a plan anyway changes nothing: every
  // per-kind message/bit ledger matches the planless run exactly.
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
