// Crash-resilient strong renaming (Section 2, Figures 1-3).
//
// Each node keeps an interval I_v in the binary interval tree over [1, n],
// a depth d_v, and a committee-election exponent p_v. The execution has
// 3*ceil(log2 n) phases of three rounds each:
//
//   round 1  committee members broadcast a notification on all n links
//   round 2  every node reports <ID, I_v, d_v, p_v> to the announced
//            committee; committee members absorb the maximum p they saw
//   round 3  committee members halve the intervals at the minimum
//            *undecided* depth and reply per-sender; nodes adopt the reply
//            (or, if the whole committee crashed, bump p_v and re-elect
//            themselves with probability ~ 256 * 2^p * log n / n)
//
// Faithfulness notes:
//  * Definition 2.1 defines d_{k,j}(v) only for nodes that have not decided
//    (|I_v| > 1). We implement the committee's minimum depth accordingly
//    (minimum over non-singleton reported intervals): a decided node keeps
//    participating (its report is what makes the rank/B_{(u,w)} counting of
//    CommitteeAction correct) but must not pin the minimum depth, otherwise
//    leaf singletons at shallow depths (any non-power-of-two n) would stall
//    every deeper node forever.
//  * Figure 3's "no message is received in this phase" is implemented as
//    "no round-3 response received", matching the proof of Lemma 2.4 ("no
//    node will receive any response from the committee during round
//    three"): a round-1 notification from a member that dies before
//    responding carries no renaming information.
//  * The election constant 256 of the paper exceeds n/log n for every
//    laptop-scale n (the committee would always be everyone), so it is a
//    parameter; benches state the constant they use. Semantics are
//    unchanged — probabilities are still min(1, c * 2^p * log n / n).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/prng.h"
#include "common/types.h"
#include "core/interval.h"
#include "core/system.h"
#include "core/verifier.h"
#include "obs/phase.h"
#include "sim/adversary.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/stats.h"
#include "sim/wire_schema.h"

namespace renaming::crash {

struct CrashParams {
  /// Election constant: paper uses 256; benches document smaller values so
  /// the committee mechanism (not the constant) is what gets measured.
  double election_constant = 256.0;
  /// Phase multiplier: the paper runs 3 * ceil(log2 n) phases.
  std::uint32_t phase_multiplier = 3;
  /// Extension (off by default for paper fidelity): committee members that
  /// see every reported interval already reduced to a singleton attach a
  /// DONE flag to their responses; recipients terminate immediately instead
  /// of idling through the remaining phases. Sound because an alive
  /// committee member receives a status from every alive node, so
  /// "all singletons in my mailbox" implies every alive node has decided.
  bool early_stopping = false;
  /// Ablation A1 (DESIGN.md): when false, committee re-election keeps the
  /// initial probability instead of doubling it after each wipe-out; the
  /// p counter still propagates (the protocol structure is unchanged),
  /// only the resource-competitive lever of Lemma 2.4/2.7 is disabled.
  bool adaptive_reelection = true;

  /// The run's round cap at n nodes: phase_multiplier * ceil(log2 n)
  /// phases of three rounds each.
  Round max_rounds(NodeIndex n) const;
};

class CrashNode final : public sim::Node {
 public:
  /// `telemetry` (optional) receives PhaseScope spans — one phase per
  /// subround (obs/phase.h) — and never influences behaviour. `provenance`
  /// (optional) records the node's decision events — committee election,
  /// halving replies, adoption, retry — with cause links to the
  /// deliveries that triggered them; also purely observational.
  CrashNode(NodeIndex self, const SystemConfig& cfg, CrashParams params,
            obs::Telemetry* telemetry = nullptr,
            obs::Provenance* provenance = nullptr);

  void send(Round round, sim::Outbox& out) override;
  void receive(Round round, sim::InboxView inbox) override;
  bool done() const override;

  // Introspection (used by protocol-aware adversaries, the verifier and
  // tests; a real deployment would not expose these).
  bool elected() const { return elected_; }
  std::uint32_t p() const { return p_; }
  std::uint32_t depth() const { return d_; }
  Interval interval() const { return interval_; }
  OriginalId original_id() const { return id_; }
  std::optional<NewId> new_id() const;

 private:
  struct Status {  // one decoded round-2 message
    OriginalId id;
    Interval interval;
    std::uint32_t d;
    std::uint32_t p;
    NodeIndex link;      // which link it arrived on (= sender index)
    std::uint32_t bits;  // delivered wire size (provenance attribution)
  };

  void committee_action(Round round, sim::Outbox& out);
  void node_action(Round round, sim::InboxView responses);
  void try_elect(Round round);

  // --- immutable context ---
  NodeIndex self_;
  NodeIndex n_;
  sim::wire::WireContext wire_;  ///< message widths (sim/wire_schema.h)
  OriginalId id_;
  CrashParams params_;
  std::uint32_t total_phases_;
  Xoshiro256 rng_;
  obs::Telemetry* telemetry_;    // non-owning, may be null
  obs::Provenance* provenance_;  // non-owning, may be null

  // --- protocol state (Figure 1 initialisation) ---
  Interval interval_;
  std::uint32_t p_ = 0;
  std::uint32_t d_ = 0;
  bool elected_ = false;

  // --- per-phase scratch ---
  std::vector<NodeIndex> announced_committee_;  // links with round-1 notice
  std::vector<Status> mailbox_;                 // M_v (committee only)
  Round rounds_executed_ = 0;
  bool finished_early_ = false;
};

/// Everything a single execution produces.
struct CrashRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
  std::uint32_t max_p = 0;  ///< largest election exponent reached (survivors)
};

/// Builds the system, runs it against `adversary` (nullptr = failure-free),
/// verifies the outcome and returns stats + report. `observers` attach to
/// the engine; their telemetry and provenance also reach every node.
CrashRunResult run_crash_renaming(
    const SystemConfig& cfg, const CrashParams& params,
    std::unique_ptr<sim::CrashAdversary> adversary = nullptr,
    sim::Observers observers = {});

/// Positional form for renaming_bench/renaming_bench.cpp, its only caller;
/// delete it once that file passes a sim::Observers.
inline CrashRunResult run_crash_renaming(
    const SystemConfig& cfg, const CrashParams& params,
    std::unique_ptr<sim::CrashAdversary> adversary, sim::TraceSink* trace,
    obs::Telemetry* telemetry, obs::Journal* journal,
    sim::parallel::ShardPlan plan) {
  return run_crash_renaming(cfg, params, std::move(adversary),
                            {.trace = trace, .telemetry = telemetry,
                             .journal = journal, .plan = plan});
}

}  // namespace renaming::crash
