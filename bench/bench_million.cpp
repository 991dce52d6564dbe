// Experiment E9 — million-node mode (docs/PERFORMANCE.md §10).
//
// One simulated run at n = 2^20: the paper's crash and Byzantine renaming
// protocols executed end to end in the engine (lazy per-node structures,
// implicit committee views, O(active) round loop), plus the Table 1
// quadratic baselines accounted in exact closed form (a simulated
// CHT at n = 2^20 would ship ~2^40 messages per round — the closed form
// yields the same RunStats in microseconds, see src/baselines/). Reported
// per cell (bench_util.h Row): wall_s and peak_rss_bytes, the two axes
// this mode exists for. The resident-set high-water mark is reset before
// every cell, so each row's peak is its own.
//
//   --smoke          n = 2^16 only (CI: ASan + RSS ceiling via
//                    scripts/bench_compare.py)
//   --json [--out F] write BENCH_million.json
//   --progress       stream a live heartbeat (renaming-progress-v1 JSONL)
//                    to stderr while each simulated cell runs — CI's
//                    million-smoke liveness signal
//   --progress-out F same heartbeat to a file (artifact-friendly); with
//                    --progress too, the stream is teed to both
//
// Both committee constants are 1.0 (committee ~ log n): the scale that
// keeps the crash RESPONSE fan-out at c * n, not n^2.
//
// Failure-free runs: the point is scale, not adversary coverage (that is
// what the n <= 4096 benches and the test suite are for); a failure-free
// run exercises the whole protocol machinery — election, status/response
// fan-out, fingerprint consensus loop, distribution — at full width.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cht_crash.h"
#include "baselines/obg_byzantine.h"
#include "bench_util.h"
#include "byzantine/byz_renaming.h"
#include "common/check.h"
#include "common/math.h"
#include "core/system.h"
#include "crash/crash_renaming.h"
#include "obs/progress.h"
#include "sim/wire_schema.h"

namespace renaming {
namespace {

using bench::Row;

// Duplicates the heartbeat to stderr and a file when both --progress and
// --progress-out are given (live log line + artifact from one stream).
class TeeBuf : public std::streambuf {
 public:
  TeeBuf(std::streambuf* a, std::streambuf* b) : a_(a), b_(b) {}

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    const int ra = a_->sputc(static_cast<char>(c));
    const int rb = b_->sputc(static_cast<char>(c));
    return (ra == traits_type::eof() || rb == traits_type::eof())
               ? traits_type::eof()
               : c;
  }
  int sync() override {
    const int ra = a_->pubsync();
    const int rb = b_->pubsync();
    return (ra == 0 && rb == 0) ? 0 : -1;
  }

 private:
  std::streambuf* a_;
  std::streambuf* b_;
};

int run(int argc, char** argv) {
  bench::pin_malloc_thresholds();
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool json = bench::has_flag(argc, argv, "--json");
  const std::string out_path =
      bench::flag_value(argc, argv, "--out", "BENCH_million.json");

  // Live heartbeat for the simulated cells (closed-form cells finish in
  // microseconds and never enter the engine, so they emit nothing).
  std::ofstream progress_file;
  std::unique_ptr<TeeBuf> progress_tee_buf;
  std::unique_ptr<std::ostream> progress_tee;
  std::unique_ptr<obs::Progress> progress;
  const bool progress_stderr = bench::has_flag(argc, argv, "--progress");
  const std::string progress_path =
      bench::flag_value(argc, argv, "--progress-out", "");
  if (progress_stderr || !progress_path.empty()) {
    progress = std::make_unique<obs::Progress>();
    if (!progress_path.empty()) progress_file.open(progress_path);
    if (progress_stderr && !progress_path.empty()) {
      progress_tee_buf =
          std::make_unique<TeeBuf>(std::cerr.rdbuf(), progress_file.rdbuf());
      progress_tee = std::make_unique<std::ostream>(progress_tee_buf.get());
      progress->set_sink(progress_tee.get());
    } else if (!progress_path.empty()) {
      progress->set_sink(&progress_file);
    } else {
      progress->set_sink(&std::cerr);
    }
  }

  const std::vector<NodeIndex> sizes =
      smoke ? std::vector<NodeIndex>{1u << 16}
            : std::vector<NodeIndex>{1u << 16, 1u << 20};
  constexpr std::uint64_t kSeed = 9001;

  std::vector<Row> rows;
  for (NodeIndex n : sizes) {
    const auto cfg =
        SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, kSeed);

    rows.push_back(bench::measure({.workload = "crash", .n = n}, [&] {
      crash::CrashParams params;
      params.election_constant = 1.0;
      const auto r = crash::run_crash_renaming(
          cfg, params, nullptr, {.progress = progress.get()});
      RENAMING_CHECK(r.report.ok(), "crash verifier rejected the run");
      return r.stats;
    }));

    rows.push_back(bench::measure({.workload = "byz", .n = n}, [&] {
      byzantine::ByzParams params;
      params.pool_constant = 1.0;
      params.shared_seed = kSeed;
      const auto r = byzantine::run_byz_renaming(
          cfg, params, {}, nullptr, 0, {.progress = progress.get()});
      RENAMING_CHECK(r.report.ok(true), "byz verifier rejected the run");
      return r.stats;
    }));

    // Table 1 contrast cells: exact closed-form accounting (the engine
    // would need ~n^2 deliveries per round). closed_form is asserted so a
    // config change can never silently turn these into real simulations.
    rows.push_back(bench::measure({.workload = "cht-closed", .n = n}, [&] {
      const auto r = baselines::run_cht_renaming(
          cfg, nullptr, /*closed_form_cutoff=*/kLargeSystemNodes);
      RENAMING_CHECK(r.closed_form, "cht cell must be closed-form");
      RENAMING_CHECK(r.report.ok(), "cht verifier rejected the run");
      return r.stats;
    }));
    // OBG ships n-identity vectors, so its total bits grow as ~n^3 log N
    // and blow past 64-bit accounting around n = 2^18 — the baseline does
    // not merely lose at this scale, it does not even FIT in the ledgers.
    // Mirror the closed form's own overflow guard and report the omission.
    const std::uint64_t obg_copies = static_cast<std::uint64_t>(n) * n;
    const std::uint64_t obg_rounds = 3 + std::max<Round>(ceil_log2(n), 1);
    const bool obg_fits =
        sim::wire::wire_bits(sim::wire::Kind::kObgVector,
                             {n, cfg.namespace_size}, n) <=
        UINT64_MAX / obg_copies / obg_rounds;
    if (obg_fits) {
      rows.push_back(bench::measure({.workload = "obg-closed", .n = n}, [&] {
        const auto r = baselines::run_obg_renaming(
            cfg, {}, baselines::ObgByzBehaviour::kSplitAnnounce,
            /*closed_form_cutoff=*/kLargeSystemNodes);
        RENAMING_CHECK(r.closed_form, "obg cell must be closed-form");
        RENAMING_CHECK(r.report.ok(), "obg verifier rejected the run");
        return r.stats;
      }));
    } else {
      std::printf("note: obg-closed omitted at n=%u — total bits would "
                  "overflow 64-bit accounting (~n^3 log N)\n", n);
    }
  }

  bench::print_rows("E9: million-node mode (baselines in closed form)", rows);
  return json ? bench::write_json("million", smoke, rows, out_path) : 0;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) { return renaming::run(argc, argv); }
