// Experiment E5 — almost-linear communication of the Byzantine algorithm
// (Theorem 1.3): with f in {0, log n}, messages grow like n log n, i.e.
// msgs/n stays ~polylog while the OBG-style all-to-all baseline stays at
// msgs/n ~ n and bits/n ~ n^2.
//
// `--json [--out PATH]` writes BENCH_byz_scaling.json (bench_util.h Json
// shape, one row per (n, f) cell including wall_ms and a per-phase
// {messages, bits, wall_us} breakdown whose ledgers sum to the run totals);
// `--smoke` shrinks the sweep for CI; `--audit` additionally checks every
// cell against the Theorem 1.3 budget and exits non-zero on a violation.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "baselines/obg_byzantine.h"
#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "obs/budget.h"
#include "obs/phase.h"
#include "obs/telemetry.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"

namespace renaming {
namespace {

using bench::fixed;
using bench::human;
using bench::Json;
using bench::Table;

// One {phase, messages, bits, wall_us} object per phase that saw traffic
// or wall time; the message/bit ledgers sum exactly to the run totals
// (the telemetry double-entry property, pinned in obs_telemetry_test.cc).
Json phase_breakdown(const obs::Telemetry& telemetry) {
  Json phases = Json::array();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const auto& t = telemetry.phase(static_cast<obs::PhaseId>(p));
    if (t.messages == 0 && t.bits == 0 && t.wall_ns == 0) continue;
    phases.push(
        Json::object()
            .set("phase", Json::str(obs::phase_name(
                              static_cast<obs::PhaseId>(p))))
            .set("messages", Json::integer(t.messages))
            .set("bits", Json::integer(t.bits))
            .set("wall_us", Json::num(static_cast<double>(t.wall_ns) / 1e3,
                                      1)));
  }
  return phases;
}

int sweep(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool json = bench::has_flag(argc, argv, "--json");
  const bool audit = bench::has_flag(argc, argv, "--audit");
  const std::string out_path =
      bench::flag_value(argc, argv, "--out", "BENCH_byz_scaling.json");

  byzantine::ByzParams params;
  params.pool_constant = 2.0;
  params.shared_seed = 23;

  Table table({"n", "f", "ours msgs", "ours msgs/n", "ours bits/n",
               "ours wall ms", "obg msgs", "obg msgs/n", "obg bits/n",
               "ours/obg bits"});
  Json rows = Json::array();

  int audit_failures = 0;
  const std::vector<NodeIndex> sizes =
      smoke ? std::vector<NodeIndex>{128u, 256u}
            : std::vector<NodeIndex>{128u, 256u, 512u, 1024u, 2048u};
  for (NodeIndex n : sizes) {
    for (int mode = 0; mode < 2; ++mode) {
      const NodeIndex f = mode == 0 ? 0 : ceil_log2(n);
      const std::uint64_t N = static_cast<std::uint64_t>(n) * n * 5;
      const auto cfg = SystemConfig::random(n, N, 2200 + n + mode);
      const auto byz = spread_faulty(n, f);
      obs::Telemetry telemetry;
      const auto start = std::chrono::steady_clock::now();
      const auto ours = byzantine::run_byz_renaming(
          cfg, params, byz, &byzantine::SplitReporter::make, 0,
          {.telemetry = &telemetry});
      const auto stop = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!ours.report.ok(true)) std::printf("OURS FAILED at n=%u f=%u\n", n, f);
      if (audit) {
        obs::BudgetParams bp;
        bp.algorithm = "byz";
        bp.n = cfg.n;
        bp.f = byz.size();
        bp.namespace_size = cfg.namespace_size;
        bp.committee_constant = params.pool_constant;
        const auto report = obs::audit_run(bp, ours.stats, &telemetry);
        if (!report.ok()) {
          ++audit_failures;
          std::printf("BUDGET VIOLATION at n=%u f=%u\n%s", n, f,
                      report.summary().c_str());
        }
      }
      // Simulating the all-to-all baseline is itself Theta(n^3) work per
      // receiver-round (that is the point of the comparison); above n = 512
      // we use its exact closed form: msgs = n^2 (3 + ceil(log2 n)), and
      // bits = idbits * n^2 * (1 + (2 + ceil(log2 n)) * (n - f)) modulo the
      // Byzantine senders' deviations.
      std::uint64_t obg_msgs, obg_bits;
      bool extrapolated = false;
      if (n <= 512 && !smoke) {
        const auto obg = baselines::run_obg_renaming(
            cfg, byz, baselines::ObgByzBehaviour::kSplitAnnounce);
        if (!obg.report.ok()) std::printf("OBG FAILED at n=%u f=%u\n", n, f);
        obg_msgs = obg.stats.total_messages;
        obg_bits = obg.stats.total_bits;
      } else {
        extrapolated = true;
        const std::uint64_t idbits = ceil_log2(N);
        obg_msgs = static_cast<std::uint64_t>(n) * n * (3 + ceil_log2(n));
        obg_bits = idbits * n *
                   (n + static_cast<std::uint64_t>(n) *
                            (2 + ceil_log2(n)) * (n - f));
      }
      table.row(
          {std::to_string(n), std::to_string(f),
           human(ours.stats.total_messages),
           fixed(static_cast<double>(ours.stats.total_messages) / n, 1),
           fixed(static_cast<double>(ours.stats.total_bits) / n, 1),
           fixed(wall_ms, 1),
           human(obg_msgs) + (extrapolated ? "*" : ""),
           fixed(static_cast<double>(obg_msgs) / n, 1),
           fixed(static_cast<double>(obg_bits) / n, 1),
           fixed(static_cast<double>(ours.stats.total_bits) /
                     static_cast<double>(obg_bits),
                 4)});
      rows.push(Json::object()
                    .set("n", Json::integer(n))
                    .set("f", Json::integer(f))
                    .set("msgs", Json::integer(ours.stats.total_messages))
                    .set("bits", Json::integer(ours.stats.total_bits))
                    .set("rounds", Json::integer(ours.stats.rounds))
                    .set("wall_ms", Json::num(wall_ms, 1))
                    .set("obg_msgs", Json::integer(obg_msgs))
                    .set("obg_bits", Json::integer(obg_bits))
                    .set("obg_extrapolated", Json::boolean(extrapolated))
                    .set("phases", phase_breakdown(telemetry)));
    }
  }
  std::printf("== E5: Byzantine algorithm scaling (pool constant 2.0; * = closed form) ==\n");
  table.print();

  // E5b — shard-parallel engine scaling on the protocol hot path: the
  // f = log n cell re-run with the engine callbacks fanned over T threads.
  // Telemetry stays detached (a live recorder forces serial callbacks), so
  // these rows carry RunStats only, no phase breakdown; msgs/bits/rounds
  // are byte-identical across the whole column and asserted so. Rows are
  // tagged "mt": true so bench_compare keys them apart from the sweep cell
  // with the same (n, f).
  {
    const NodeIndex n = smoke ? 256u : 1024u;
    const NodeIndex f = ceil_log2(n);
    const std::uint64_t N = static_cast<std::uint64_t>(n) * n * 5;
    const auto cfg = SystemConfig::random(n, N, 2200 + n + 1);
    const auto byz = spread_faulty(n, f);
    const std::vector<unsigned> counts =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};
    Table mt_table({"n", "f", "threads", "msgs", "wall ms", "speedup"});
    double base_ms = 0.0;
    std::uint64_t base_msgs = 0;
    std::uint64_t base_bits = 0;
    for (unsigned t : counts) {
      std::unique_ptr<sim::parallel::WorkerPool> pool;
      sim::parallel::ShardPlan plan;
      if (t > 1) {
        pool = std::make_unique<sim::parallel::WorkerPool>(t);
        plan.pool = pool.get();
      }
      const auto start = std::chrono::steady_clock::now();
      const auto r = byzantine::run_byz_renaming(
          cfg, params, byz, &byzantine::SplitReporter::make, 0, {.plan = plan});
      const auto stop = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!r.report.ok(true)) {
        std::printf("OURS FAILED at n=%u f=%u threads=%u\n", n, f, t);
      }
      if (t == 1) {
        base_ms = wall_ms;
        base_msgs = r.stats.total_messages;
        base_bits = r.stats.total_bits;
      } else {
        RENAMING_CHECK(r.stats.total_messages == base_msgs &&
                           r.stats.total_bits == base_bits,
                       "thread count must not change the message stream");
      }
      const double speedup = wall_ms > 0.0 ? base_ms / wall_ms : 0.0;
      mt_table.row({std::to_string(n), std::to_string(f), std::to_string(t),
                    human(r.stats.total_messages), fixed(wall_ms, 1),
                    fixed(speedup, 2)});
      rows.push(Json::object()
                    .set("n", Json::integer(n))
                    .set("f", Json::integer(f))
                    .set("threads", Json::integer(t))
                    .set("mt", Json::boolean(true))
                    .set("msgs", Json::integer(r.stats.total_messages))
                    .set("bits", Json::integer(r.stats.total_bits))
                    .set("rounds", Json::integer(r.stats.rounds))
                    .set("wall_ms", Json::num(wall_ms, 1)));
    }
    std::printf("== E5b: shard-parallel engine scaling (byz, telemetry "
                "detached) ==\n");
    mt_table.print();
  }

  if (json) {
    Json doc = Json::object();
    doc.set("bench", Json::str("byz_scaling"))
        .set("smoke", Json::boolean(smoke))
        .set("rows", std::move(rows));
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    out << doc.dump();
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (audit_failures > 0) {
    std::printf("budget audit: %d cell(s) over budget\n", audit_failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) {
  std::printf(
      "E5: 'ours msgs/n' stays polylogarithmic (almost-linear total) while\n"
      "'obg msgs/n' grows ~n and 'obg bits/n' grows ~n^2; the bits ratio\n"
      "collapses toward 0 as n grows.\n\n");
  return renaming::sweep(argc, argv);
}
