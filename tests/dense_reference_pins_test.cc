// Dense-reference pins (docs/PERFORMANCE.md §10).
//
// The engine once had two execution layouts: a dense one that built every
// per-node structure up front, and the sparse one that only touches nodes
// with traffic. They were pinned byte-identical, and the sparse layout is
// now the only one. The digests below were recorded from the dense layout
// before it was deleted; the engine must keep reproducing them exactly — the
// same golden trace bytes, flight-recorder journal, RunStats, outcomes and
// telemetry per-kind ledgers — on the paths with different delivery shapes:
//   * crash renaming under a mid-send CommitteeHunter (the crash cut,
//     Outbox::keep, turning a victim's broadcast into repeat entries;
//     idle-victim ensure());
//   * Byzantine renaming with Spoofer nodes (authentication rejections,
//     committee multicast, kRepeat coalescing, view interning);
//   * crash renaming under a ChaosCrashAdversary (crashes spread over the
//     run, which the sorted active-list merge must drop);
//   * the CHT baseline untraced (shared-inbox broadcast fast path with
//     outbox release/rebind cycling).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cht_crash.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "digest.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "sim/adversary.h"
#include "sim/trace.h"

namespace renaming {
namespace {

struct Pin {
  NodeIndex n;  ///< 48 matches the golden-pin context
  Digests digests;
};

std::string journal_bytes(const obs::Journal& journal) {
  std::ostringstream out;
  obs::write_journal_binary(out, journal.data());
  return out.str();
}

struct PinnedRun {
  Digests digests;
  sim::RunStats stats;
};

template <typename Result>
PinnedRun digest(const std::string& trace, const obs::Journal& journal,
                 const Result& r, const obs::Telemetry& telemetry) {
  return PinnedRun{{fnv1a(trace), fnv1a(journal_bytes(journal)),
                    run_digest(r.stats, r.outcomes), ledger_digest(telemetry)},
                   r.stats};
}

PinnedRun run_crash(NodeIndex n, bool chaos) {
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 77 + n);
  crash::CrashParams params;
  params.election_constant = 3.0;
  std::unique_ptr<sim::CrashAdversary> adversary;
  if (chaos) {
    adversary = std::make_unique<sim::ChaosCrashAdversary>(n / 6, 0.2,
                                                           77 + n);
  } else {
    adversary = std::make_unique<crash::CommitteeHunter>(
        n / 6, crash::CommitteeHunter::Mode::kMidResponse, 77 + n, 0.5);
  }
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  obs::Telemetry telemetry;
  const auto r = crash::run_crash_renaming(
      cfg, params, std::move(adversary),
      {.trace = &trace, .telemetry = &telemetry, .journal = &journal});
  return digest(trace_out.str(), journal, r, telemetry);
}

PinnedRun run_byz(NodeIndex n) {
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 91 + n);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 91 + n;
  const std::vector<NodeIndex> byz = {3u, n / 2u, n - 7u};
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Journal journal;
  obs::Telemetry telemetry;
  const auto r = byzantine::run_byz_renaming(
      cfg, params, byz, &byzantine::Spoofer::make, 0,
      {.trace = &trace, .telemetry = &telemetry, .journal = &journal});
  return digest(trace_out.str(), journal, r, telemetry);
}

PinnedRun run_cht(NodeIndex n) {
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 55 + n);
  obs::Journal journal;
  obs::Telemetry telemetry;
  const auto r = baselines::run_cht_renaming(
      cfg, nullptr, /*closed_form_cutoff=*/0,
      {.telemetry = &telemetry, .journal = &journal});
  return digest(std::string(), journal, r, telemetry);
}

std::string at(NodeIndex n) { return "at n=" + std::to_string(n); }

TEST(DenseReferencePins, CrashHunter) {
  const Pin pins[] = {
      {48,
       {5825168458701269008ull, 1177671655418296625ull,
        13336993871037153554ull, 13341620921167339646ull}},
      {96,
       {13480402579898677203ull, 1721433724962437233ull,
        10192951116403203915ull, 11330428720892495152ull}},
      {256,
       {6867361695059190778ull, 10825981072497680889ull,
        11400127576397635167ull, 4491838631131848472ull}},
  };
  for (const Pin& pin : pins) {
    const PinnedRun run = run_crash(pin.n, /*chaos=*/false);
    ASSERT_GT(run.stats.crashes, 0u)
        << "the adversary never fired; the mid-send path went unexercised";
    expect_pin(run.digests, pin.digests, at(pin.n));
  }
}

TEST(DenseReferencePins, CrashChaos) {
  const Pin pins[] = {
      {48,
       {481216470207337875ull, 5411089968206350628ull,
        9515663473723867816ull, 17266126175215796575ull}},
      {96,
       {16013899742570261499ull, 1611437864343181845ull,
        14123274600729898296ull, 2973348367093553822ull}},
      {256,
       {5603843002089390671ull, 14603826768925406694ull,
        12560062755951857087ull, 16459912626151229617ull}},
  };
  for (const Pin& pin : pins) {
    expect_pin(run_crash(pin.n, /*chaos=*/true).digests, pin.digests,
               at(pin.n));
  }
}

TEST(DenseReferencePins, ByzantineSpoofing) {
  const Pin pins[] = {
      {48,
       {12080294227027523709ull, 14540629993436835547ull,
        3833308847891649018ull, 11443566362000827034ull}},
      {96,
       {7165824928747117331ull, 14318692218772285494ull,
        1635043858175556439ull, 4531802048741123890ull}},
      {256,
       {8530169998745719145ull, 12808902165968540957ull,
        17798008491324886417ull, 7629696048481961190ull}},
  };
  for (const Pin& pin : pins) {
    const PinnedRun run = run_byz(pin.n);
    ASSERT_GT(run.stats.spoofs_rejected, 0u)
        << "no spoofs rejected; the authentication path went unexercised";
    expect_pin(run.digests, pin.digests, at(pin.n));
  }
}

TEST(DenseReferencePins, ChtSharedInbox) {
  const Pin pins[] = {
      {48,
       {1469598103934665603ull, 9752660984170515308ull,
        9805073318449433437ull, 7810748310268543662ull}},
      {96,
       {1469598103934665603ull, 13855944099407175987ull,
        15002953506578976387ull, 15477238618666551986ull}},
      {256,
       {1469598103934665603ull, 5307158318929777780ull,
        1090809583816448456ull, 14288800959579624073ull}},
  };
  for (const Pin& pin : pins) {
    expect_pin(run_cht(pin.n).digests, pin.digests, at(pin.n));
  }
}

}  // namespace
}  // namespace renaming
