// Experiment E8 — raw engine throughput (docs/PERFORMANCE.md).
//
// Measures the simulator hot path itself, independent of any renaming
// claim: events/sec (one event = one message leaving a sender) on
//   * ping       — n nodes broadcasting one O(log N)-bit message per round
//                  for a fixed number of rounds: pure engine overhead;
//   * cht        — the all-to-all CHT halving baseline, the workload that
//                  made bench_crash_scaling dodge n >= 4096 before the
//                  broadcast fast path existed;
//   * cht-crash  — same under a random crash adversary, exercising the
//                  mid-send crash (outbox expansion) slow path;
//   * cht-tel    — cht with a live obs::Telemetry attached: measures the
//                  telemetry hot-path overhead against the matching plain
//                  cht cell (recorded as telemetry_overhead in the JSON;
//                  budget: < 2%, see docs/PERFORMANCE.md);
//   * cht-jrn    — cht with a flight-recorder obs::Journal attached: the
//                  per-delivery fingerprint + count overhead, against the
//                  same plain cht cell (journal_overhead in the JSON;
//                  budget: < 2%);
//   * cht-live   — cht with the live-observability pair attached: a
//                  ring-only obs::Progress heartbeat plus an
//                  obs::ShardProfile on the shard plan (live_obs_overhead
//                  in the JSON; budget: < 2%);
//   * cht-prov   — cht with a watch-set obs::Provenance recorder attached
//                  (8 sampled watch nodes, bounded horizon): the causal
//                  decision-event cost (provenance_overhead in the JSON;
//                  budget: < 2% with the watch-set);
//   * byz        — the full Byzantine renaming protocol (committee
//                  multicast, identity-list summaries, fingerprint
//                  consensus): the protocol-side hot path end to end.
//
// Independent seeds run in parallel (bench_util.h pool); each simulation is
// single-threaded and deterministic. `--json` writes BENCH_engine.json so
// CI can accrue per-PR numbers; `--smoke` shrinks the sweep for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
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
#include "obs/rss.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"

namespace renaming {
namespace {

using bench::fixed;
using bench::human;
using bench::Json;
using bench::Table;

constexpr sim::MsgKind kPing = 41;

/// Broadcasts one small message per round for a fixed number of rounds.
class PingNode final : public sim::Node {
 public:
  PingNode(NodeIndex self, Round rounds) : self_(self), rounds_(rounds) {}

  void send(Round, sim::Outbox& out) override {
    out.broadcast(
        sim::make_message(kPing, 32, static_cast<std::uint64_t>(self_)));
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

struct Cell {
  std::string workload;
  NodeIndex n = 0;
  unsigned threads = 1;  ///< Engine threads per simulation (1 = serial).
  std::uint64_t seeds = 0;
  std::uint64_t rounds = 0;  ///< Rounds of one representative run.
  std::uint64_t events = 0;  ///< Messages sent, summed over all seeds.
  double wall_ms = 0.0;      ///< Wall time for the whole seed batch.
  double events_per_sec = 0.0;
  std::uint64_t peak_rss = 0;
  double barrier_share = 0.0;  ///< cht-mt only: obs::barrier_wait_share.
};

sim::RunStats run_ping(NodeIndex n, std::uint64_t /*seed*/) {
  constexpr Round kRounds = 10;
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(n);
  for (NodeIndex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<PingNode>(v, kRounds));
  }
  sim::Engine engine(std::move(nodes));
  return engine.run(kRounds);
}

sim::RunStats run_cht(NodeIndex n, std::uint64_t seed, bool with_crashes,
                      bool with_telemetry = false,
                      bool with_journal = false,
                      bool with_live = false,
                      bool with_prov = false,
                      sim::parallel::ShardPlan plan = {}) {
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, seed);
  auto adversary =
      with_crashes ? std::make_unique<sim::RandomCrashAdversary>(
                         ceil_log2(n), 0.3, seed)
                   : nullptr;
  obs::Telemetry telemetry;
  obs::Journal journal;
  // Ring-only heartbeat (no sink) + shard profile: the pure hot-path cost
  // of the live-observability layer, without any I/O in the loop.
  obs::Progress progress;
  obs::ShardProfile profile;
  if (with_live) plan.profile = &profile;
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
      {.telemetry = with_telemetry ? &telemetry : nullptr,
       .journal = with_journal ? &journal : nullptr,
       .progress = with_live ? &progress : nullptr,
       .provenance = with_prov ? &provenance : nullptr,
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

Cell measure(const std::string& workload, NodeIndex n, std::uint64_t seeds,
             unsigned threads) {
  std::vector<sim::RunStats> stats(seeds);
  const bool rss_reset = bench::reset_peak_rss();
  const auto start = std::chrono::steady_clock::now();
  bench::parallel_jobs(
      seeds,
      [&](std::size_t i) {
        const std::uint64_t seed = 7000 + 13 * i;
        if (workload == "ping") {
          stats[i] = run_ping(n, seed);
        } else if (workload == "byz") {
          stats[i] = run_byz(n, seed);
        } else {
          stats[i] = run_cht(n, seed, workload == "cht-crash",
                             workload == "cht-tel", workload == "cht-jrn",
                             workload == "cht-live",
                             workload == "cht-prov");
        }
      },
      threads);
  const auto stop = std::chrono::steady_clock::now();

  Cell cell;
  cell.workload = workload;
  cell.n = n;
  cell.seeds = seeds;
  cell.rounds = stats[0].rounds;
  for (const sim::RunStats& s : stats) cell.events += s.total_messages;
  cell.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  cell.events_per_sec =
      cell.wall_ms > 0.0 ? cell.events / (cell.wall_ms / 1e3) : 0.0;
  cell.peak_rss = rss_reset ? obs::peak_rss_bytes() : 0;
  return cell;
}

/// Engine thread-scaling cell: the same cht workload, but the seeds run
/// SEQUENTIALLY and each simulation itself runs shard-parallel on a
/// dedicated WorkerPool of `engine_threads` threads (the two pools must
/// not nest — WorkerPool::run is non-reentrant). Stats are byte-identical
/// across thread counts; only wall time moves.
Cell measure_engine_threads(NodeIndex n, std::uint64_t seeds,
                            unsigned engine_threads) {
  std::unique_ptr<sim::parallel::WorkerPool> pool;
  sim::parallel::ShardPlan plan;
  if (engine_threads > 1) {
    pool = std::make_unique<sim::parallel::WorkerPool>(engine_threads);
    plan.pool = pool.get();
  }
  // The shard profile rides along on every scaling cell: its
  // barrier_wait_share lands in the JSON row so bench_compare.py can
  // soft-gate on barrier overhead creep. begin_run resets it per
  // simulation, so the reported share is the last seed's run.
  obs::ShardProfile profile;
  plan.profile = &profile;
  std::vector<sim::RunStats> stats(seeds);
  const bool rss_reset = bench::reset_peak_rss();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < seeds; ++i) {
    stats[i] = run_cht(n, 7000 + 13 * i, /*with_crashes=*/false,
                       /*with_telemetry=*/false, /*with_journal=*/false,
                       /*with_live=*/false, /*with_prov=*/false, plan);
  }
  const auto stop = std::chrono::steady_clock::now();

  Cell cell;
  cell.workload = "cht-mt";
  cell.n = n;
  cell.threads = engine_threads;
  cell.seeds = seeds;
  cell.rounds = stats[0].rounds;
  for (const sim::RunStats& s : stats) cell.events += s.total_messages;
  cell.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  cell.events_per_sec =
      cell.wall_ms > 0.0 ? cell.events / (cell.wall_ms / 1e3) : 0.0;
  cell.peak_rss = rss_reset ? obs::peak_rss_bytes() : 0;
  cell.barrier_share = obs::barrier_wait_share(profile.data());
  return cell;
}

int run(int argc, char** argv) {
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
                 {"cht-tel", {512}, 2},
                 {"cht-jrn", {512}, 2},
                 {"cht-live", {512}, 2},
                 {"cht-prov", {512}, 2},
                 {"cht-crash", {256}, 2},
                 {"byz", {96}, 2}};
  } else {
    workloads = {{"ping", {256, 1024, 2048, 4096}, 4},
                 {"cht", {256, 512, 1024, 2048, 4096}, 4},
                 {"cht-tel", {2048}, 4},
                 {"cht-jrn", {2048}, 4},
                 {"cht-live", {2048}, 4},
                 {"cht-prov", {2048}, 4},
                 {"cht-crash", {1024, 2048}, 4},
                 {"byz", {96, 192, 384}, 4}};
  }

  Table table({"workload", "n", "seeds", "rounds", "events", "wall ms",
               "events/s", "peak rss"});
  Json rows = Json::array();
  std::vector<Cell> cells;
  for (const Workload& w : workloads) {
    for (NodeIndex n : w.sizes) {
      const Cell cell = measure(w.name, n, w.seeds, threads);
      // The RSS probe feeds the bench_compare.py memory gate; a null row
      // would pass every ceiling, so smoke runs (the CI configuration)
      // assert the per-cell reset worked and the row is real.
      if (smoke) {
        RENAMING_CHECK(cell.peak_rss > 0,
                       "peak_rss_bytes row must be populated");
      }
      cells.push_back(cell);
      table.row({cell.workload, std::to_string(cell.n),
                 std::to_string(cell.seeds), std::to_string(cell.rounds),
                 human(cell.events), fixed(cell.wall_ms, 1),
                 human(static_cast<std::uint64_t>(cell.events_per_sec)),
                 human(cell.peak_rss)});
      rows.push(Json::object()
                    .set("workload", Json::str(cell.workload))
                    .set("n", Json::integer(cell.n))
                    .set("threads", Json::integer(cell.threads))
                    .set("seeds", Json::integer(cell.seeds))
                    .set("rounds", Json::integer(cell.rounds))
                    .set("events", Json::integer(cell.events))
                    .set("wall_ms", Json::num(cell.wall_ms, 1))
                    .set("events_per_sec",
                         Json::num(cell.events_per_sec, 0))
                    .set("peak_rss_bytes", bench::rss_json(cell.peak_rss)));
    }
  }

  std::printf("== E8: engine throughput (events = messages sent; "
              "seeds run in parallel) ==\n");
  table.print();

  // Shard-parallel engine scaling: cht with the round callbacks fanned
  // over T engine threads (seeds sequential so the pools don't nest).
  // Events and rounds are byte-identical across the column; only wall
  // time moves — that invariance is itself asserted here.
  const NodeIndex mt_n = smoke ? 512 : 2048;
  const std::uint64_t mt_seeds = smoke ? 2 : 4;
  const std::vector<unsigned> mt_threads =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  Table mt_table({"workload", "n", "threads", "seeds", "events", "wall ms",
                  "events/s", "speedup", "barrier"});
  double mt_base_ms = 0.0;
  std::uint64_t mt_base_events = 0;
  for (unsigned t : mt_threads) {
    const Cell cell = measure_engine_threads(mt_n, mt_seeds, t);
    if (t == 1) {
      mt_base_ms = cell.wall_ms;
      mt_base_events = cell.events;
    } else {
      RENAMING_CHECK(cell.events == mt_base_events,
                     "thread count must not change the event stream");
    }
    const double speedup =
        cell.wall_ms > 0.0 ? mt_base_ms / cell.wall_ms : 0.0;
    mt_table.row({cell.workload, std::to_string(cell.n), std::to_string(t),
                  std::to_string(cell.seeds), human(cell.events),
                  fixed(cell.wall_ms, 1),
                  human(static_cast<std::uint64_t>(cell.events_per_sec)),
                  fixed(speedup, 2),
                  fixed(100.0 * cell.barrier_share, 1) + "%"});
    rows.push(Json::object()
                  .set("workload", Json::str(cell.workload))
                  .set("n", Json::integer(cell.n))
                  .set("threads", Json::integer(cell.threads))
                  .set("seeds", Json::integer(cell.seeds))
                  .set("rounds", Json::integer(cell.rounds))
                  .set("events", Json::integer(cell.events))
                  .set("wall_ms", Json::num(cell.wall_ms, 1))
                  .set("events_per_sec", Json::num(cell.events_per_sec, 0))
                  .set("peak_rss_bytes", bench::rss_json(cell.peak_rss))
                  .set("barrier_wait_share",
                       Json::num(cell.barrier_share, 3)));
  }
  std::printf("== E8b: shard-parallel engine scaling (cht, seeds "
              "sequential) ==\n");
  mt_table.print();

  // Instrumentation overhead: plain cht vs the same cell with a recorder
  // attached. Two sweep cells are measured many seconds apart, so on a
  // shared host their ratio is dominated by machine drift, not by the
  // instrumentation; instead each repetition here times base and
  // instrumented BACK-TO-BACK (drift cancels within a pair) and the
  // reported overhead is the median pair ratio (spikes drop out). The
  // sweep's cht-tel / cht-jrn rows above still pin the deterministic
  // events/rounds.
  const auto paired_overhead = [threads](const std::string& workload,
                                         const char* label, NodeIndex n,
                                         std::uint64_t seeds) {
    constexpr int kPairs = 5;
    std::vector<double> ratios;
    std::vector<double> base_rates;
    std::vector<double> inst_rates;
    for (int p = 0; p < kPairs; ++p) {
      const Cell base = measure("cht", n, seeds, threads);
      const Cell inst = measure(workload, n, seeds, threads);
      if (base.wall_ms <= 0.0 || inst.wall_ms <= 0.0) continue;
      ratios.push_back(inst.wall_ms / base.wall_ms);
      base_rates.push_back(base.events_per_sec);
      inst_rates.push_back(inst.events_per_sec);
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v.empty() ? 0.0 : v[v.size() / 2];
    };
    const double pct = ratios.empty() ? 0.0 : 100.0 * (median(ratios) - 1.0);
    std::printf("%s overhead at cht n=%u: %.2f%% "
                "(median of %d back-to-back pairs, %.0f -> %.0f events/s; "
                "budget < 2%%)\n",
                label, n, pct, kPairs, median(base_rates),
                median(inst_rates));
    Json overhead = Json::array();
    overhead.push(Json::object()
                      .set("n", Json::integer(n))
                      .set("pairs", Json::integer(kPairs))
                      .set("baseline_events_per_sec",
                           Json::num(median(base_rates), 0))
                      .set(std::string(label) + "_events_per_sec",
                           Json::num(median(inst_rates), 0))
                      .set("overhead_pct", Json::num(pct, 2)));
    return overhead;
  };
  const NodeIndex overhead_n = smoke ? 512 : 2048;
  const std::uint64_t overhead_seeds = smoke ? 2 : 4;
  Json overhead =
      paired_overhead("cht-tel", "telemetry", overhead_n, overhead_seeds);
  Json journal_overhead =
      paired_overhead("cht-jrn", "journal", overhead_n, overhead_seeds);
  Json live_overhead =
      paired_overhead("cht-live", "live_obs", overhead_n, overhead_seeds);
  Json provenance_overhead =
      paired_overhead("cht-prov", "provenance", overhead_n, overhead_seeds);

  if (json) {
    Json doc = Json::object();
    doc.set("bench", Json::str("engine"))
        .set("smoke", Json::boolean(smoke))
        .set("rows", std::move(rows))
        .set("telemetry_overhead", std::move(overhead))
        .set("journal_overhead", std::move(journal_overhead))
        .set("live_obs_overhead", std::move(live_overhead))
        .set("provenance_overhead", std::move(provenance_overhead));
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    out << doc.dump();
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) { return renaming::run(argc, argv); }
