// Experiment E5 — almost-linear communication of the Byzantine algorithm
// (Theorem 1.3): with f in {0, log n}, messages grow like n log n, i.e.
// msgs/n stays ~polylog while the OBG-style all-to-all baseline stays at
// msgs/n ~ n and bits/n ~ n^2.
//
// Rows (bench_util.h Row) per (n, f): `byz` (telemetry attached; its
// per-phase msgs/bits/wall_s layers sum to the run totals), then the OBG
// contrast as `obg` (simulated, n <= 512) or `obg-closed` (closed form);
// then `byz-mt`, the f = log n cell on a shard-parallel engine of T
// threads. `--json [--out PATH]` writes BENCH_byz_scaling.json; `--smoke`
// shrinks the sweep for CI; `--audit` additionally checks every byz cell
// against the Theorem 1.3 budget and exits non-zero on a violation.
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/obg_byzantine.h"
#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "obs/budget.h"
#include "obs/telemetry.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"

namespace renaming {
namespace {

using bench::Row;

int sweep(int argc, char** argv) {
  bench::pin_malloc_thresholds();
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool json = bench::has_flag(argc, argv, "--json");
  const bool audit = bench::has_flag(argc, argv, "--audit");
  const std::string out_path =
      bench::flag_value(argc, argv, "--out", "BENCH_byz_scaling.json");

  byzantine::ByzParams params;
  params.pool_constant = 2.0;
  params.shared_seed = 23;

  std::vector<Row> rows;
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
      sim::RunStats ours;
      rows.push_back(bench::measure({.workload = "byz", .n = n, .f = f}, [&] {
        const auto r = byzantine::run_byz_renaming(
            cfg, params, byz, &byzantine::SplitReporter::make, 0,
            {.telemetry = &telemetry});
        if (!r.report.ok(true)) std::printf("OURS FAILED at n=%u f=%u\n", n, f);
        ours = r.stats;
        return r.stats;
      }));
      rows.back().phase_layers(telemetry);
      if (audit) {
        obs::BudgetParams bp;
        bp.algorithm = "byz";
        bp.n = cfg.n;
        bp.f = byz.size();
        bp.namespace_size = cfg.namespace_size;
        bp.committee_constant = params.pool_constant;
        const auto report = obs::audit_run(bp, ours, &telemetry);
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
      const bool simulate = n <= 512;
      rows.push_back(bench::measure(
          {.workload = simulate ? "obg" : "obg-closed", .n = n, .f = f}, [&] {
            if (simulate) {
              const auto obg = baselines::run_obg_renaming(
                  cfg, byz, baselines::ObgByzBehaviour::kSplitAnnounce);
              if (!obg.report.ok()) {
                std::printf("OBG FAILED at n=%u f=%u\n", n, f);
              }
              return obg.stats;
            }
            const std::uint64_t idbits = ceil_log2(N);
            sim::RunStats closed;
            closed.rounds = 3 + ceil_log2(n);
            closed.total_messages =
                static_cast<std::uint64_t>(n) * n * closed.rounds;
            closed.total_bits =
                idbits * n *
                (n + static_cast<std::uint64_t>(n) * (2 + ceil_log2(n)) *
                         (n - f));
            return closed;
          }));
    }
  }

  // E5b — shard-parallel engine scaling on the protocol hot path: the
  // f = log n cell re-run with the engine callbacks fanned over T threads.
  // Telemetry stays detached, so these rows time the bare engine and carry
  // no phase layers; messages/bits/rounds are byte-identical across the
  // whole column and asserted so.
  {
    const NodeIndex n = smoke ? 256u : 1024u;
    const NodeIndex f = ceil_log2(n);
    const std::uint64_t N = static_cast<std::uint64_t>(n) * n * 5;
    const auto cfg = SystemConfig::random(n, N, 2200 + n + 1);
    const auto byz = spread_faulty(n, f);
    const std::vector<unsigned> counts =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};
    const std::size_t base = rows.size();
    for (unsigned t : counts) {
      std::unique_ptr<sim::parallel::WorkerPool> pool;
      sim::parallel::ShardPlan plan;
      if (t > 1) {
        pool = std::make_unique<sim::parallel::WorkerPool>(t);
        plan.pool = pool.get();
      }
      rows.push_back(bench::measure(
          {.workload = "byz-mt", .n = n, .f = f, .threads = t}, [&] {
            const auto r = byzantine::run_byz_renaming(
                cfg, params, byz, &byzantine::SplitReporter::make, 0,
                {.plan = plan});
            if (!r.report.ok(true)) {
              std::printf("OURS FAILED at n=%u f=%u threads=%u\n", n, f, t);
            }
            return r.stats;
          }));
      Row& row = rows.back();
      RENAMING_CHECK(row.messages == rows[base].messages &&
                         row.bits == rows[base].bits &&
                         row.rounds == rows[base].rounds,
                     "thread count must not change the message stream");
      row.layer("sim.parallel.speedup", rows[base].wall_s / row.wall_s);
    }
  }

  bench::print_rows("E5: Byzantine algorithm scaling (pool constant 2.0)",
                    rows);
  const int status =
      json ? bench::write_json("byz_scaling", smoke, rows, out_path) : 0;
  if (audit_failures > 0) {
    std::printf("budget audit: %d cell(s) over budget\n", audit_failures);
    return 1;
  }
  return status;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) {
  std::printf(
      "E5: the byz rows' msgs/n stays polylogarithmic (almost-linear total)\n"
      "while the obg rows' msgs/n grows ~n and bits/n grows ~n^2.\n\n");
  return renaming::sweep(argc, argv);
}
