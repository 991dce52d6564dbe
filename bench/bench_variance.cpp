// Experiment R1 — robustness of the headline measurements across seeds:
// mean +/- stddev of messages and rounds over 10 random instances per
// configuration. The paper's guarantees are "with high probability"; this
// harness shows the measured spread is tight (the w.h.p. tail never fired
// in any run — the verifier column counts failures across all seeds).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"

namespace renaming {
namespace {

using bench::Summary;
using bench::Table;

void crash_variance() {
  Table table({"config", "msgs mean +/- std", "msgs max/min", "rounds",
               "failures"});
  const NodeIndex n = 512;
  const int seeds = 10;
  for (std::uint64_t f : {0ull, 32ull, 128ull}) {
    Summary msgs, rounds;
    int failures = 0;
    for (int s = 1; s <= seeds; ++s) {
      const auto cfg = SystemConfig::random(
          n, static_cast<std::uint64_t>(n) * n * 5, 8800 + s);
      crash::CrashParams params;
      params.election_constant = 2.0;
      auto adversary =
          f == 0 ? nullptr
                 : std::make_unique<crash::CommitteeHunter>(
                       f, crash::CommitteeHunter::Mode::kAtAnnounce, s * 3);
      const auto r =
          crash::run_crash_renaming(cfg, params, std::move(adversary));
      failures += r.report.ok() ? 0 : 1;
      msgs.add(static_cast<double>(r.stats.total_messages));
      rounds.add(r.stats.rounds);
    }
    table.row({"crash n=512 f=" + std::to_string(f), msgs.mean_pm_std(),
               bench::fixed(msgs.max() / msgs.min(), 2),
               bench::fixed(rounds.mean(), 0),
               std::to_string(failures) + "/" + std::to_string(seeds)});
  }
  std::printf("== R1a: crash algorithm spread over %d seeds ==\n", seeds);
  table.print();
}

void byz_variance() {
  Table table({"config", "msgs mean +/- std", "iters mean +/- std",
               "failures"});
  const NodeIndex n = 256;
  const int seeds = 10;
  for (NodeIndex f : {0u, 8u}) {
    Summary msgs, iters;
    int failures = 0;
    for (int s = 1; s <= seeds; ++s) {
      const auto cfg = SystemConfig::random(
          n, static_cast<std::uint64_t>(n) * n * 5, 9900 + s);
      byzantine::ByzParams params;
      params.pool_constant = 3.0;
      params.shared_seed = 100 + s;
      const auto r = byzantine::run_byz_renaming(
          cfg, params, spread_faulty(n, f), &byzantine::SplitReporter::make);
      failures += r.report.ok(true) ? 0 : 1;
      msgs.add(static_cast<double>(r.stats.total_messages));
      iters.add(r.loop_iterations);
    }
    table.row({"byz n=256 f=" + std::to_string(f), msgs.mean_pm_std(),
               iters.mean_pm_std(),
               std::to_string(failures) + "/" + std::to_string(seeds)});
  }
  std::printf("== R1b: Byzantine algorithm spread over %d seeds ==\n", seeds);
  table.print();
}

}  // namespace
}  // namespace renaming

int main() {
  std::printf("R1: w.h.p. guarantees in practice — spread across seeds.\n\n");
  renaming::crash_variance();
  renaming::byz_variance();
  return 0;
}
