// Experiments E4 + E6 — Theorem 1.3 / Lemma 3.10: the Byzantine
// algorithm's loop iterations, rounds and messages grow with the *actual*
// number of Byzantine nodes f (split-reporter strategy, the one that
// maximally diverges the committee's identity lists), with the f = 0 run
// costing O(n log n) messages and a single loop iteration.
#include <cstdio>

#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"

namespace renaming {
namespace {

using bench::fixed;
using bench::human;
using bench::Table;

void sweep(NodeIndex n) {
  byzantine::ByzParams params;
  params.pool_constant = 3.0;
  params.shared_seed = 17;

  const std::uint64_t N = static_cast<std::uint64_t>(n) * n * 5;
  const double logN = ceil_log2(N);

  Table table({"f", "iterations", "4f logN cap", "rounds", "msgs",
               "msgs/(f logN log^3 n + n logn)", "bits", "ok"});

  for (NodeIndex f : {0u, 1u, 2u, 4u, 8u, 16u, 24u}) {
    if (f >= n / 4) continue;
    const auto cfg = SystemConfig::random(n, N, 1100 + n + f);
    const auto result = byzantine::run_byz_renaming(
        cfg, params, spread_faulty(n, f), &byzantine::SplitReporter::make);
    const double logn = ceil_log2(n);
    const double denom = f * logN * logn * logn * logn + n * logn;
    table.row({std::to_string(f), std::to_string(result.loop_iterations),
               std::to_string(static_cast<std::uint64_t>(
                   4 * std::max<std::uint64_t>(f, 1) * logN)),
               std::to_string(result.stats.rounds),
               human(result.stats.total_messages),
               fixed(result.stats.total_messages / denom, 3),
               human(result.stats.total_bits),
               result.report.ok(true) ? "yes" : "NO"});
  }
  std::printf("== E4/E6: Byzantine algorithm vs split-reporters, n = %u, "
              "N = %llu (pool constant 3.0) ==\n",
              n, static_cast<unsigned long long>(N));
  table.print();
}

}  // namespace
}  // namespace renaming

int main() {
  std::printf(
      "E4: messages and rounds grow ~linearly with the actual number of\n"
      "Byzantine nodes f; loop iterations stay within the 4 f log N bound\n"
      "of Lemma 3.10 (f = 0 takes exactly one iteration).\n\n");
  renaming::sweep(512);
  renaming::sweep(1024);
  return 0;
}
