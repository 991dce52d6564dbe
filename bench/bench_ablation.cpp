// Experiments A1 + A2 — ablations of the two design choices DESIGN.md
// calls out.
//
// A1: committee re-election probability doubling (Lemmas 2.4/2.7). With
//     doubling disabled, a committee-hunting adversary with the same
//     budget keeps wiping out the (never-growing) committees, so runs
//     stall: nodes fail to decide within the deterministic round budget.
//     With doubling, every wipe-out doubles the re-election rate and the
//     adversary runs out of budget.
//
// A2: fingerprint divide-and-conquer vs shipping full identity vectors
//     inside the committee. Both are correct. The measured trade-off is
//     honest and two-sided: the full-vector variant pays Omega(n log N)
//     bits *per message* (violating the CONGEST budget the paper works
//     in) and its total bits grow linearly with n, while the fingerprint
//     loop keeps every message at O(log N) bits and its total cost is
//     ~independent of n at fixed f — but at laptop scale (n <= a few
//     thousand, committee ~ 20) one full-vector exchange is cheaper in
//     total bits. The columns to read: "max msg bits" (the model
//     constraint) and the growth of "bits" with n within each variant.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "byzantine/adaptive.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"

namespace renaming {
namespace {

using bench::fixed;
using bench::human;
using bench::Table;

void ablation_reelection() {
  const NodeIndex n = 512;
  Table table({"variant", "f budget", "decided runs", "avg msgs",
               "avg crashes spent"});

  for (bool adaptive : {true, false}) {
    for (std::uint64_t f : {16ull, 64ull, 192ull}) {
      crash::CrashParams params;
      params.election_constant = 1.0;
      params.adaptive_reelection = adaptive;
      int decided = 0;
      std::uint64_t msgs = 0, crashes = 0;
      const int reps = 5;
      for (int rep = 0; rep < reps; ++rep) {
        const auto cfg = SystemConfig::random(
            n, static_cast<std::uint64_t>(n) * n * 5, 3300 + rep);
        const auto result = crash::run_crash_renaming(
            cfg, params,
            std::make_unique<crash::CommitteeHunter>(
                f, crash::CommitteeHunter::Mode::kAtAnnounce, 77 * rep + f));
        decided += result.report.ok() ? 1 : 0;
        msgs += result.stats.total_messages;
        crashes += result.stats.crashes;
      }
      table.row({adaptive ? "doubling (paper)" : "fixed prob (ablated)",
                 std::to_string(f), std::to_string(decided) + "/" +
                     std::to_string(reps),
                 human(msgs / reps), std::to_string(crashes / reps)});
    }
  }
  std::printf("== A1: committee re-election doubling, n = 512, "
              "committee-hunter Eve ==\n");
  table.print();
}

void ablation_fingerprints() {
  Table table({"n", "f", "variant", "rounds", "msgs", "bits", "max msg bits",
               "ok"});
  for (NodeIndex n : {256u, 512u, 1024u, 2048u, 4096u}) {
    const NodeIndex f = ceil_log2(n);
    const std::uint64_t N = static_cast<std::uint64_t>(n) * n * 5;
    const auto cfg = SystemConfig::random(n, N, 4400 + n);
    for (bool fingerprints : {true, false}) {
      byzantine::ByzParams params;
      params.pool_constant = 2.0;
      params.shared_seed = 29;
      params.use_fingerprints = fingerprints;
      const auto result = byzantine::run_byz_renaming(
          cfg, params, spread_faulty(n, f), &byzantine::SplitReporter::make);
      table.row({std::to_string(n), std::to_string(f),
                 fingerprints ? "fingerprint d&c (paper)"
                              : "full vectors (ablated)",
                 std::to_string(result.stats.rounds),
                 human(result.stats.total_messages),
                 human(result.stats.total_bits),
                 std::to_string(result.stats.max_message_bits),
                 result.report.ok() ? "yes" : "NO"});
    }
  }
  std::printf("== A2: fingerprint divide-and-conquer vs full-vector "
              "exchange (split-reporter byzantines) ==\n");
  table.print();
}


void adaptive_vs_static() {
  // A3 (Section 3.2 discussion): the non-adaptive adversary assumption is
  // load-bearing. An adaptive adversary corrupting members at election
  // time wrecks the run with a budget equal to the committee size; a
  // static adversary needs ~n/3 corruptions to even threaten it.
  Table table({"adversary", "budget", "corrupted members", "committee",
               "decided", "verdict"});
  const NodeIndex n = 256;
  const auto cfg = SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 5500);
  byzantine::ByzParams params;
  params.pool_constant = 3.0;
  params.shared_seed = 43;
  for (std::uint64_t budget : {0ull, 4ull, 64ull}) {
    const auto r = byzantine::run_adaptive_experiment(cfg, params, budget);
    table.row({"adaptive (at election)", std::to_string(budget),
               std::to_string(r.corrupted),
               std::to_string(r.committee_size),
               r.report.all_correct_decided ? "all" : "none",
               r.report.ok() ? "correct" : "WRECKED"});
  }
  {
    const auto r = byzantine::run_byz_renaming(
        cfg, params, spread_faulty(n, 64),
        [](NodeIndex, const SystemConfig&, const Directory&,
           const byzantine::ByzParams&) -> std::unique_ptr<sim::Node> {
          return std::make_unique<byzantine::SilentNode>();
        });
    table.row({"static (before election)", "64", "-", "-",
               r.report.all_correct_decided ? "all" : "none",
               r.report.ok() ? "correct" : "WRECKED"});
  }
  std::printf("== A3: adaptive vs static corruption, n = 256 ==\n");
  table.print();
}

}  // namespace
}  // namespace renaming

int main() {
  std::printf(
      "A1: without probability doubling, the same adversary budget keeps\n"
      "killing committees and runs fail to decide; with doubling every\n"
      "budget is exhausted and all runs decide.\n"
      "A2: full-vector exchange pays per-message bits ~ n log N (growing\n"
      "linearly with n, breaking the CONGEST budget), while the fingerprint\n"
      "loop keeps every message at O(log N) bits with total cost set by f,\n"
      "not n. At laptop scale the single full-vector exchange still wins on\n"
      "total bits - see EXPERIMENTS.md for the crossover discussion.\n\n");
  renaming::ablation_reelection();
  renaming::ablation_fingerprints();
  renaming::adaptive_vs_static();
  return 0;
}
