// Experiment E8 — raw engine throughput (docs/PERFORMANCE.md).
//
// Measures the simulator hot path itself, independent of any renaming
// claim, as wall time per cell (bench_util.h Row) on
//   * ping       — n nodes broadcasting one O(log N)-bit message per round
//                  for a fixed number of rounds: pure engine overhead;
//   * cht        — the all-to-all CHT halving baseline, the workload that
//                  made bench_crash_scaling dodge n >= 4096 before the
//                  broadcast fast path existed;
//   * cht-crash  — same under a random crash adversary (f = log n),
//                  exercising the mid-send crash cut (Outbox::keep) and
//                  the per-node inbox slices it sends a round to;
//   * byz        — the full Byzantine renaming protocol (committee
//                  multicast, identity-list summaries, fingerprint
//                  consensus, f = log n split reporters): the
//                  protocol-side hot path end to end;
//   * cht-tel    — cht with a live obs::Telemetry attached;
//   * cht-jrn    — cht with a flight-recorder obs::Journal attached (the
//                  per-delivery fingerprint + count);
//   * cht-live   — cht with the live-observability pair attached: a
//                  ring-only obs::Progress heartbeat plus an
//                  obs::ShardProfile on the shard plan;
//   * cht-prov   — cht with a watch-set obs::Provenance recorder attached
//                  (8 sampled watch nodes, bounded horizon);
//   * cht-mt     — cht on a shard-parallel engine of 1, 2, 4, 8 threads.
// The four observer cells carry their paired overhead against plain cht
// as the obs.overhead_pct layer, with its quartiles as obs.overhead_p25_pct
// and obs.overhead_p75_pct (budget: < 2%, see docs/PERFORMANCE.md);
// the cht-mt cells carry sim.parallel.speedup and barrier_wait_share.
//
// Independent seeds run in parallel (bench_util.h pool); each simulation
// outside cht-mt is single-threaded and deterministic. `--json` writes
// BENCH_engine.json; `--smoke` shrinks the sweep for CI.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cht_crash.h"
#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"
#include "test_support.h"

namespace renaming {
namespace {

using bench::Row;

constexpr sim::MsgKind kPing = 41;

/// Broadcasts one small message per round for a fixed number of rounds.
class PingNode final : public sim::Node {
 public:
  PingNode(NodeIndex self, Round rounds) : self_(self), rounds_(rounds) {}

  void send(Round, sim::Outbox& out) override {
    out.broadcast(
        sim::make_message(kPing, test_support::raw_wire_bits(32),
                          static_cast<std::uint64_t>(self_)));
  }

  void receive(Round round, sim::InboxView inbox) override {
    seen_ += inbox.size();
    executed_ = round;
  }

  bool done() const override { return executed_ >= rounds_; }

 private:
  NodeIndex self_;
  Round rounds_;
  Round executed_ = 0;
  std::uint64_t seen_ = 0;
};

struct Workload {
  std::string name;
  std::vector<NodeIndex> sizes;
  std::uint64_t seeds = 4;
};

sim::RunStats run_ping(NodeIndex n) {
  constexpr Round kRounds = 10;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(n);
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<PingNode>(v, kRounds));
  }
  sim::Engine engine(std::move(nodes));
  return engine.run(kRounds);
}

/// Every cht workload: the name selects the adversary or the observer.
sim::RunStats run_cht(const std::string& workload, NodeIndex n,
                      std::uint64_t seed, sim::parallel::ShardPlan plan = {}) {
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed);
  auto adversary = workload == "cht-crash"
                       ? std::make_unique<sim::RandomCrashAdversary>(
                             ceil_log2(n), 0.3, seed)
                       : nullptr;
  obs::Telemetry telemetry;
  obs::Journal journal;
  // Ring-only heartbeat (no sink) + shard profile: the pure hot-path cost
  // of the live-observability layer, without any I/O in the loop.
  obs::Progress progress;
  obs::ShardProfile profile;
  const bool live = workload == "cht-live";
  if (live) plan.profile = &profile;
  // Watch-set recorder, as a real diagnosis run would use it: a small
  // sampled watch-set (8 suspect nodes, the --trace-sample scale of the
  // CI smoke) and a bounded horizon (docs/OBSERVABILITY.md §9). Watched
  // nodes re-walk their inbox for cause attribution, so the overhead is
  // proportional to the watch fraction — watching n/8 of the system is
  // the documented expensive mode, not the diagnosis default.
  obs::ProvenanceOptions prov_opts;
  prov_opts.sample = 8;
  prov_opts.horizon = 1 << 16;
  obs::Provenance provenance(prov_opts);
  auto result = baselines::run_cht_renaming(
      cfg, std::move(adversary), /*closed_form_cutoff=*/0,
      {.telemetry = workload == "cht-tel" ? &telemetry : nullptr,
       .journal = workload == "cht-jrn" ? &journal : nullptr,
       .progress = live ? &progress : nullptr,
       .provenance = workload == "cht-prov" ? &provenance : nullptr,
       .plan = plan});
  if (!result.report.ok()) {
    std::printf("WARNING: cht verifier failed at n=%u seed=%llu\n", n,
                static_cast<unsigned long long>(seed));
  }
  return result.stats;
}

sim::RunStats run_byz(NodeIndex n, std::uint64_t seed) {
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed);
  byzantine::ByzParams params;
  params.pool_constant = 3.0;
  params.shared_seed = seed;
  const NodeIndex f = ceil_log2(n);
  auto result = byzantine::run_byz_renaming(cfg, params, spread_faulty(n, f),
                                            &byzantine::SplitReporter::make);
  if (!result.report.ok(true)) {
    std::printf("WARNING: byz verifier failed at n=%u seed=%llu\n", n,
                static_cast<unsigned long long>(seed));
  }
  return result.stats;
}

std::uint64_t seed_of(std::size_t i) { return 7000 + 13 * i; }

/// One sweep cell: the seeds run in parallel on the harness pool. The
/// cell runs once untimed first; without that warm-up the first cell of a
/// size read up to 3x slower than the same seeds measured later in the
/// process.
Row measure(const std::string& workload, NodeIndex n, std::uint64_t seeds,
            unsigned threads) {
  const bool faulty = workload == "cht-crash" || workload == "byz";
  std::vector<sim::RunStats> stats(seeds);
  const auto execute = [&] {
    bench::parallel_jobs(
        seeds,
        [&](std::size_t i) {
          if (workload == "ping") {
            stats[i] = run_ping(n);
          } else if (workload == "byz") {
            stats[i] = run_byz(n, seed_of(i));
          } else {
            stats[i] = run_cht(workload, n, seed_of(i));
          }
        },
        threads);
    return stats[0];
  };
  execute();
  return bench::measure(
      {.workload = workload,
       .n = n,
       .f = faulty ? static_cast<NodeIndex>(ceil_log2(n)) : 0,
       .seeds = seeds},
      execute);
}

int run(int argc, char** argv) {
  bench::pin_malloc_thresholds();
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool json = bench::has_flag(argc, argv, "--json");
  const std::string out_path =
      bench::flag_value(argc, argv, "--out", "BENCH_engine.json");
  const unsigned threads = static_cast<unsigned>(
      std::stoul(bench::flag_value(argc, argv, "--threads", "0")));

  std::vector<Workload> workloads;
  if (smoke) {
    workloads = {{"ping", {256, 512}, 2},
                 {"cht", {256, 512}, 2},
                 {"cht-crash", {256}, 2},
                 {"byz", {96}, 2}};
  } else {
    workloads = {{"ping", {256, 1024, 2048, 4096}, 4},
                 {"cht", {256, 512, 1024, 2048, 4096}, 4},
                 {"cht-crash", {256, 1024, 2048}, 4},
                 {"byz", {96, 192, 384}, 4}};
  }
  std::vector<Row> rows;
  for (const Workload& w : workloads) {
    for (NodeIndex n : w.sizes) {
      rows.push_back(measure(w.name, n, w.seeds, threads));
    }
  }

  // Instrumentation overhead: plain cht vs the same cell with a recorder
  // attached. Two sweep cells are measured many seconds apart, so on a
  // shared host their ratio is dominated by machine drift, not by the
  // instrumentation; instead each repetition here times base and
  // instrumented BACK-TO-BACK (drift cancels within a pair), alternating
  // which of the two runs first so neither side always inherits the
  // other's cache and heap state. The overhead is the median pair ratio
  // with its quartiles beside it; a cell is over the 2% budget only when
  // its lower quartile is. The row itself is the last pair's instrumented
  // cell.
  const NodeIndex overhead_n = smoke ? 512 : 2048;
  const std::uint64_t overhead_seeds = smoke ? 2 : 4;
  const int pairs = smoke ? 5 : 21;
  for (const char* workload : {"cht-tel", "cht-jrn", "cht-live", "cht-prov"}) {
    std::vector<double> pcts;
    Row row;
    for (int p = 0; p < pairs; ++p) {
      Row base;
      if (p % 2 == 0) {
        base = measure("cht", overhead_n, overhead_seeds, threads);
        row = measure(workload, overhead_n, overhead_seeds, threads);
      } else {
        row = measure(workload, overhead_n, overhead_seeds, threads);
        base = measure("cht", overhead_n, overhead_seeds, threads);
      }
      pcts.push_back(100.0 * (row.wall_s / base.wall_s - 1.0));
    }
    std::sort(pcts.begin(), pcts.end());
    const double p25 = pcts[pcts.size() / 4];
    const double pct = pcts[pcts.size() / 2];
    const double p75 = pcts[pcts.size() * 3 / 4];
    std::printf("%s overhead at cht n=%u: %.2f%% [%.2f, %.2f] (median "
                "[quartiles] of %d alternating pairs; budget < 2%%)%s\n",
                workload, overhead_n, pct, p25, p75, pairs,
                p25 > 2.0 ? " over budget" : "");
    row.layer("obs.overhead_pct", pct, 2);
    row.layer("obs.overhead_p25_pct", p25, 2);
    row.layer("obs.overhead_p75_pct", p75, 2);
    rows.push_back(row);
  }

  // Shard-parallel engine scaling: cht with the round callbacks fanned
  // over T engine threads on a dedicated WorkerPool, seeds SEQUENTIAL
  // (WorkerPool::run is non-reentrant, so the pools must not nest).
  // Messages and rounds are byte-identical across the column; only wall
  // time moves — that invariance is itself asserted here. The shard
  // profile rides along on every cell; begin_run resets it per
  // simulation, so its barrier_wait_share is the last seed's run.
  const NodeIndex mt_n = smoke ? 512 : 2048;
  const std::uint64_t mt_seeds = smoke ? 2 : 4;
  const std::vector<unsigned> mt_threads =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  double mt_base_s = 0.0;
  std::uint64_t mt_base_messages = 0;
  for (unsigned t : mt_threads) {
    std::unique_ptr<sim::parallel::WorkerPool> pool;
    sim::parallel::ShardPlan plan;
    if (t > 1) {
      pool = std::make_unique<sim::parallel::WorkerPool>(t);
      plan.pool = pool.get();
    }
    obs::ShardProfile profile;
    plan.profile = &profile;
    std::uint64_t messages = 0;  // summed over every seed
    Row row = bench::measure(
        {.workload = "cht-mt", .n = mt_n, .threads = t, .seeds = mt_seeds},
        [&] {
          sim::RunStats first;
          for (std::size_t i = 0; i < mt_seeds; ++i) {
            const sim::RunStats s = run_cht("cht-mt", mt_n, seed_of(i), plan);
            messages += s.total_messages;
            if (i == 0) first = s;
          }
          return first;
        });
    if (t == 1) {
      mt_base_s = row.wall_s;
      mt_base_messages = messages;
    }
    RENAMING_CHECK(messages == mt_base_messages,
                   "thread count must not change the message stream");
    row.layer("sim.parallel.barrier_wait_share",
              obs::barrier_wait_share(profile.data()));
    row.layer("sim.parallel.speedup", mt_base_s / row.wall_s);
    rows.push_back(row);
  }

  bench::print_rows("E8: engine throughput (seeds run in parallel; cht-mt "
                    "seeds sequential)",
                    rows);
  return json ? bench::write_json("engine", smoke, rows, out_path) : 0;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) { return renaming::run(argc, argv); }
