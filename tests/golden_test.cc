// Golden determinism regression: fixed (seed, params) executions must
// reproduce exact statistics forever. If a protocol change alters any of
// these numbers *intentionally*, update the goldens in the same commit —
// the test exists so that can never happen silently.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "digest.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "sim/trace.h"

namespace renaming {
namespace {

/// Order-sensitive chain over the decided new names, in node order.
std::uint64_t idsum(const std::vector<NodeOutcome>& outcomes) {
  std::uint64_t h = 0;
  for (const auto& o : outcomes) {
    if (o.new_id) h = h * 1000003 + *o.new_id;
  }
  return h;
}

TEST(Golden, CrashRunIsBitStable) {
  const auto cfg = SystemConfig::random(64, 64 * 64 * 5, 4242);
  crash::CrashParams params;
  params.election_constant = 2.0;
  // Run `a` carries live telemetry, run `b` none: equality of every stat
  // and outcome below is the observational-invisibility contract of
  // obs/telemetry.h, pinned.
  obs::Telemetry telemetry;
  const auto a =
      crash::run_crash_renaming(cfg, params, nullptr,
                                {.telemetry = &telemetry});
  const auto b = crash::run_crash_renaming(cfg, params);
  ASSERT_TRUE(a.report.ok());
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].new_id, b.outcomes[i].new_id);
  }
  // Cross-process stability: identical numbers on every platform with the
  // same IEEE doubles and the same PRNG (both are part of this repo).
  EXPECT_EQ(a.stats.rounds, 54u);
}

TEST(Golden, ByzantineRunIsBitStable) {
  const auto cfg = SystemConfig::random(48, 48 * 48 * 5, 777);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 4242;
  const std::vector<NodeIndex> byz = {5, 23, 41};
  obs::Telemetry telemetry;  // live on `a` only; see CrashRunIsBitStable
  const auto a = byzantine::run_byz_renaming(
      cfg, params, byz, &byzantine::SplitReporter::make, 0,
      {.telemetry = &telemetry});
  const auto b = byzantine::run_byz_renaming(cfg, params, byz,
                                             &byzantine::SplitReporter::make);
  ASSERT_TRUE(a.report.ok(true));
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.loop_iterations, b.loop_iterations);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].new_id, b.outcomes[i].new_id);
  }
}

// The two tests below pin full Byzantine executions down to the trace
// BYTES, not just run-to-run determinism: the engine fast paths (broadcast,
// multicast, idle-node skipping), the incremental IdentityList AND the
// telemetry subsystem (attached live here) are all required to be
// observationally invisible; these constants are the proof. The stats and
// idsum pins predate telemetry — if any of them moves, an optimization (or
// an instrumentation hook) changed an execution. The trace size/fnv pins
// were recaptured once when JsonlTrace gained the kind_name field; the
// stats pins were unchanged by that, which is exactly the point.

TEST(Golden, ByzantineTraceBytesArePinned48) {
  const auto cfg = SystemConfig::random(48, 48 * 48 * 5, 777);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 4242;
  const std::vector<NodeIndex> byz = {5, 23, 41};
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Telemetry telemetry;
  // The flight recorder rides along live: every byte pin below doubles as
  // proof that the journal is observationally invisible too.
  obs::Journal journal;
  const auto r = byzantine::run_byz_renaming(
      cfg, params, byz, &byzantine::SplitReporter::make, 0,
      {.trace = &trace, .telemetry = &telemetry, .journal = &journal});
  ASSERT_TRUE(r.report.ok(true));
  EXPECT_EQ(journal.data().total_messages, r.stats.total_messages);
  EXPECT_EQ(r.stats.total_messages, 646590u);
  EXPECT_EQ(r.stats.total_bits, 22138340u);
  EXPECT_EQ(r.stats.rounds, 2284u);
  EXPECT_EQ(r.loop_iterations, 71u);
  EXPECT_EQ(trace_out.str().size(), 72010771u);
  EXPECT_EQ(fnv1a(trace_out.str()), 15566803809388888443ull);
  EXPECT_EQ(idsum(r.outcomes), 5469758842561306130ull);
}

TEST(Golden, ByzantineTraceBytesArePinned96) {
  const auto cfg = SystemConfig::random(96, 96u * 96u * 5u, 31415);
  byzantine::ByzParams params;
  params.pool_constant = 3.0;
  params.shared_seed = 99;
  const std::vector<NodeIndex> byz = {3, 17, 42, 77};
  std::ostringstream trace_out;
  sim::JsonlTrace trace(trace_out);
  obs::Telemetry telemetry;
  const auto r = byzantine::run_byz_renaming(
      cfg, params, byz, &byzantine::DoubleDealer::make, 0,
      {.trace = &trace, .telemetry = &telemetry});
  ASSERT_TRUE(r.report.ok(true));
  EXPECT_EQ(r.stats.total_messages, 1680144u);
  EXPECT_EQ(r.stats.total_bits, 60015360u);
  EXPECT_EQ(r.stats.rounds, 4150u);
  EXPECT_EQ(r.loop_iterations, 113u);
  EXPECT_EQ(trace_out.str().size(), 187846457u);
  EXPECT_EQ(fnv1a(trace_out.str()), 2975628053447774016ull);
  EXPECT_EQ(idsum(r.outcomes), 331529188109441609ull);
}

TEST(Golden, AdversarialCrashRunIsBitStable) {
  const auto cfg = SystemConfig::random(96, 96u * 96u * 5u, 31337);
  crash::CrashParams params;
  params.election_constant = 1.0;
  auto make_adversary = [] {
    return std::make_unique<crash::CommitteeHunter>(
        24, crash::CommitteeHunter::Mode::kMidResponse, 99, 0.5);
  };
  const auto a = crash::run_crash_renaming(cfg, params, make_adversary());
  const auto b = crash::run_crash_renaming(cfg, params, make_adversary());
  ASSERT_TRUE(a.report.ok());
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.stats.crashes, b.stats.crashes);
}

}  // namespace
}  // namespace renaming
