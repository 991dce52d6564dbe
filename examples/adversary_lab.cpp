// adversary_lab: a teaching/debugging tool — runs small instances against
// every adversary in the repository and prints a per-round trace of the
// system (alive nodes, committee size, message volume, crashes), so you
// can watch the re-election mechanism double its probability after a
// committee wipe-out, or watch the divide-and-conquer loop split segments
// around a Byzantine under-reporter.
//
//   $ ./build/examples/adversary_lab
#include <cstdio>
#include <memory>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "sim/auth.h"
#include "crash/crash_renaming.h"
#include "test_support.h"

namespace {

void crash_trace() {
  using namespace renaming;
  const NodeIndex n = 64;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 7);
  crash::CrashParams params;
  params.election_constant = 1.0;

  std::printf("--- crash algorithm vs committee sniper (n = %u) ---\n", n);
  std::printf("per-round: [phase.subround] messages, crashes\n");
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      24, crash::CommitteeHunter::Mode::kAtAnnounce, 3);
  const auto run = crash::run_crash_renaming(cfg, params,
                                             std::move(adversary));
  for (std::size_t r = 0; r < run.stats.per_round.size(); ++r) {
    const auto& rs = run.stats.per_round[r];
    if (rs.messages == 0 && rs.crashes == 0) continue;
    std::printf("  [%zu.%zu] msgs=%-6llu crashes=%llu\n", r / 3 + 1, r % 3 + 1,
                static_cast<unsigned long long>(rs.messages),
                static_cast<unsigned long long>(rs.crashes));
  }
  std::printf("verdict: %s, %llu total messages, f = %llu\n\n",
              run.report.ok() ? "correct" : "VIOLATION",
              static_cast<unsigned long long>(run.stats.total_messages),
              static_cast<unsigned long long>(run.stats.crashes));
}

void byzantine_trace() {
  using namespace renaming;
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 8);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 21;

  std::printf("--- byzantine algorithm vs split reporters (n = %u) ---\n", n);
  std::vector<NodeIndex> byz = {3, 11, 27, 41};
  const auto run = byzantine::run_byz_renaming(cfg, params, byz,
                                               &byzantine::SplitReporter::make);
  std::printf("loop iterations: %u (f = %zu under-reporters forced the\n"
              "divide-and-conquer to isolate their positions)\n",
              run.loop_iterations, byz.size());
  std::printf("rounds: %u, messages: %llu, spoofs rejected: %llu\n",
              run.stats.rounds,
              static_cast<unsigned long long>(run.stats.total_messages),
              static_cast<unsigned long long>(run.stats.spoofs_rejected));
  std::printf("verdict: %s (order-preserving: %s)\n\n",
              run.report.ok() ? "correct" : "VIOLATION",
              run.report.order_preserving ? "yes" : "no");
}

void lying_member_trace() {
  using namespace renaming;
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 9);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 22;

  std::printf("--- byzantine algorithm vs lying committee members ---\n");
  std::vector<NodeIndex> byz = {5, 17, 29};
  const auto run = byzantine::run_byz_renaming(cfg, params, byz,
                                               &byzantine::LyingMember::make);
  std::printf("equivocation in every consensus instance + fake NEW volleys:\n"
              "verdict %s in %u rounds (early fake NEW cannot reach the\n"
              "view-majority threshold)\n\n",
              run.report.ok() ? "correct" : "VIOLATION", run.stats.rounds);
}

void authentication_demo() {
  using namespace renaming;
  // The deployment-shaped authentication API (sim/auth.h): a keyed tag per
  // message; tampering with payload or claimed origin invalidates it. The
  // engine enforces the same property structurally (claimed_sender checks);
  // this shows what the wire format would carry in a real system.
  std::printf("--- message authentication demo ---\n");
  sim::Authenticator alice_key(0xA11CE);
  sim::Message m = sim::make_message(
      /*kind=*/1, test_support::raw_wire_bits(64), std::uint64_t{42});
  m.claimed_sender = 3;
  const std::uint64_t tag = alice_key.tag(m);
  std::printf("tag(msg)                 = %016llx -> verify: %s\n",
              static_cast<unsigned long long>(tag),
              alice_key.verify(m, tag) ? "ok" : "REJECTED");
  sim::Message forged = m;
  forged.claimed_sender = 4;  // masquerade as someone else
  std::printf("verify(forged origin)    -> %s\n",
              alice_key.verify(forged, tag) ? "ok" : "REJECTED");
  sim::Message tampered = m;
  tampered.w[0] = 43;  // altered payload
  std::printf("verify(tampered payload) -> %s\n\n",
              alice_key.verify(tampered, tag) ? "ok" : "REJECTED");
}

}  // namespace

int main() {
  crash_trace();
  byzantine_trace();
  lying_member_trace();
  authentication_demo();
  return 0;
}
