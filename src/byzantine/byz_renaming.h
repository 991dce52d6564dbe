// Byzantine-resilient strong order-preserving renaming (Section 3).
//
// Protocol outline (all stages in lockstep across correct nodes):
//
//   round 1   committee election: the shared beacon elects a candidate
//             pool over the whole namespace [N]; nodes whose identity is
//             in the pool broadcast ELECT. Receivers accept an ELECT iff
//             the claimed identity passes authentication (Directory) and
//             the pool coin — this yields the committee view C_v.
//   round 2   identity aggregation: every node reports its identity to the
//             committee; member v builds its identity list L_v.
//   loop      divide-and-conquer consensus on L (Figure 4): a stack J of
//             pending segments starting at [1, N]. Per segment:
//               |j| = 1 : binary Consensus (phase-king) on the bit.
//               |j| > 1 : Validator on <fingerprint, count>; Consensus on
//                         `same`; if agreed, a DIFF exchange + Consensus
//                         decides whether enough members hold the agreed
//                         preimage; on failure the segment splits in two.
//             Members whose own segment mismatches the agreed fingerprint
//             mark it dirty: the agreed count still fixes every rank, they
//             just abstain from distributing inside that segment.
//   finally   distribution: members send NEW(rank) for identities in their
//             non-dirty segments (rank = agreed ones before the identity),
//             and NEW(null) to reporters inside dirty segments. A node
//             decides once more than half of its committee view has spoken,
//             taking the majority non-null value; since correct holders of
//             every accepted segment number >= m - 2t >= t + 1 > |B|, the
//             majority is the true rank.
//
// The DIFF threshold is t + 1 (the paper's "many"): if the segment is
// accepted, fewer than t + 1 correct members lacked the preimage, so at
// least m - 2t >= t + 1 correct members can distribute within it; and
// Byzantine members alone (<= t) can never force a consistent segment to
// split. See DESIGN.md for the substitution notes (broadcast announcements,
// beacon, engine-level authentication).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/math.h"
#include "common/types.h"
#include "consensus/committee.h"
#include "consensus/phase_king.h"
#include "consensus/validator.h"
#include "core/directory.h"
#include "core/interval.h"
#include "core/system.h"
#include "core/verifier.h"
#include "hashing/shared_random.h"
#include "byzantine/identity_list.h"
#include "obs/phase.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/stats.h"
#include "sim/wire_schema.h"

namespace renaming::byzantine {

struct ByzParams {
  /// The paper's epsilon_0: tolerance margin, f < (1/3 - eps0) n.
  double epsilon0 = 1.0 / 12.0;
  /// Pool probability p0 = min(1, pool_constant * log2(n) / n).
  /// 0 selects the paper's own constant 8 / ((1 - 3 eps0) eps0^2), which
  /// makes the committee everyone at laptop scale; benches document the
  /// value they use instead.
  double pool_constant = 0.0;
  /// Seed of the shared-randomness beacon (public, known to all).
  std::uint64_t shared_seed = 1;
  /// Ablation A2 (DESIGN.md): when false, the committee skips the
  /// fingerprint divide-and-conquer entirely and ships full identity
  /// vectors (Omega(n log N)-bit messages) in a single witness-filtered
  /// exchange — the communication pattern the paper's loop replaces.
  bool use_fingerprints = true;

  double pool_probability(NodeIndex n) const {
    double c = pool_constant;
    if (c <= 0.0) {
      c = 8.0 / ((1.0 - 3.0 * epsilon0) * epsilon0 * epsilon0);
    }
    const double p = c * static_cast<double>(protocol_log(n)) /
                     static_cast<double>(n);
    return p > 1.0 ? 1.0 : p;
  }
};

class ByzNode : public sim::Node {
 public:
  /// Fingerprint coefficients are drawn from the stateless beacon of
  /// params.shared_seed on every query (hashing/fingerprint.h), so a node
  /// needs no run-wide state to agree with the others on them.
  /// `views` is the committee-view pool (consensus::ViewInterner) the node
  /// builds its view from: honest nodes deriving the same view then share
  /// one immutable CommitteeView (at most one per engine shard) instead of
  /// storing n private copies, the difference between O(n log n) and
  /// O(log n) resident view state at n = 2^20. A run shares one pool among
  /// all its nodes; a Byzantine strategy's core brings its own.
  /// `telemetry` (optional) receives PhaseScope spans and per-phase wall
  /// time; it never influences behaviour.
  /// `provenance` (optional) records the node's decision events — election,
  /// phase-king verdicts, segment splits, rank distribution, the final
  /// majority claim — with cause links to the deliveries that produced
  /// them; also purely observational.
  ByzNode(NodeIndex self, const SystemConfig& cfg, const Directory& directory,
          ByzParams params, consensus::ViewInterner& views,
          obs::Telemetry* telemetry = nullptr,
          obs::Provenance* provenance = nullptr);

  void send(Round round, sim::Outbox& out) override;
  void receive(Round round, sim::InboxView inbox) override;
  bool done() const override;
  /// Ordinary nodes spend almost the whole execution in the terminal
  /// kDone stage waiting for NEW messages; both send() and an empty-inbox
  /// receive() are no-ops there, so the engine may skip them.
  bool idle() const override { return stage_ == Stage::kDone; }

  // Introspection for tests/benches/adversaries.
  bool elected() const { return member_ != nullptr; }
  OriginalId original_id() const { return id_; }
  std::optional<NewId> new_id() const { return new_id_; }
  const consensus::CommitteeView& view() const { return *view_; }
  std::uint32_t loop_iterations() const {
    return member_ ? member_->iterations : 0;
  }
  std::uint32_t segments_split() const { return member_ ? member_->splits : 0; }
  std::uint32_t segments_dirty() const {
    return member_ ? member_->dirties : 0;
  }

 protected:
  // Hooks used by Byzantine strategy subclasses (see strategies.h): the
  // honest implementation is final in behaviour but exposes its pieces.
  enum class Stage {
    kElect,
    kIdReport,
    kValidator,
    kSameConsensus,
    kDiffExchange,
    kDiffConsensus,
    kBitConsensus,
    kFullExchange,  ///< ablation: ship whole vectors instead of hashes
    kDistribute,
    kDone,
  };

  Stage stage() const { return stage_; }

  /// Central phase-id table entry for a protocol stage (obs/phase.h).
  static obs::PhaseId phase_of(Stage stage);

 private:
  struct Processed {
    Interval segment;
    std::uint64_t count = 0;  ///< agreed number of ones
    bool dirty = false;       ///< my content mismatched the agreed hash
  };
  /// A verified round-2 report: identity `id` came over link `link`.
  struct Report {
    std::uint64_t id = 0;
    NodeIndex link = kNoNode;
  };
  /// A NEW vote: the first value `sender` sent (0 = null), and its
  /// delivered wire bits for provenance cause attribution. Held only
  /// while the node is undecided.
  struct Vote {
    NodeIndex sender = kNoNode;
    std::uint32_t bits = 0;
    std::uint64_t value = 0;
  };
  /// Everything only a committee member keeps: its identity list, the
  /// divide-and-conquer loop and its consensus instances. Allocated when
  /// the pool coin elects the node, so the ordinary nodes (all but
  /// O(log n) of the system) carry one null pointer instead.
  struct Member {
    Member(std::uint64_t namespace_size,
           const hashing::SharedRandomness& beacon)
        : list(namespace_size, beacon) {}

    IdentityList list;
    // The verified round-2 reports, sorted by id with one entry per id
    // (the first to arrive). distribute() walks it beside each segment's
    // ids to address NEW(rank), and emits NEW(null) to it in id order.
    std::vector<Report> reporters;
    std::vector<Interval> pending;     // the stack J
    std::vector<Processed> processed;  // J-hat, ascending and disjoint
    Interval current{1, 1};
    SegmentSummary mine;
    consensus::ValidatorValue agreed;
    bool diff = false;
    std::size_t view_index = consensus::CommitteeView::npos;
    std::unique_ptr<consensus::Validator> validator;
    std::unique_ptr<consensus::PhaseKing> king;
    std::uint32_t step = 0;
    std::uint64_t session = 0;
    std::uint32_t iterations = 0;
    std::uint32_t splits = 0;
    std::uint32_t dirties = 0;
  };

  void start_iteration();
  void split_current(Round round);
  /// Appends the current segment to J-hat, which the DFS fills in
  /// ascending segment order.
  void accept_current(std::uint64_t agreed_count, bool dirty);
  void load_reports(sim::InboxView inbox);
  void distribute(Round round, sim::Outbox& out);
  void consider_new_messages(Round round, sim::InboxView inbox);

  // --- immutable context ---
  NodeIndex self_;
  NodeIndex n_;
  std::uint64_t namespace_size_;
  sim::wire::WireContext wire_;  ///< message widths (sim/wire_schema.h)
  OriginalId id_;
  const Directory* directory_;
  ByzParams params_;
  hashing::SharedRandomness beacon_;
  obs::Telemetry* telemetry_;  // non-owning, may be null
  consensus::ViewInterner* views_;  // non-owning, never null
  obs::Provenance* provenance_;  // non-owning, may be null

  // --- common state ---
  Stage stage_ = Stage::kElect;
  /// Immutable, possibly shared across nodes via the interner; starts as
  /// the process-wide empty view. Never null.
  std::shared_ptr<const consensus::CommitteeView> view_;
  std::optional<NewId> new_id_;
  // NEW votes accumulated across rounds until the node decides, at most
  // one per view member (the first wins), kept sorted by sender: the
  // provenance causes list them in that order. Freed on the decision, so
  // a decided node holds no vote storage for the rest of the run.
  std::vector<Vote> new_votes_;
  /// Non-null exactly while the node is an elected committee member.
  std::unique_ptr<Member> member_;
};

/// Outcome of one full execution.
struct ByzRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
  std::uint32_t loop_iterations = 0;  ///< max over correct members
};

/// Byzantine strategy factory: given (index, cfg, directory, params),
/// produce the adversarial Node. See strategies.h for implementations.
using ByzStrategyFactory = std::unique_ptr<sim::Node> (*)(
    NodeIndex, const SystemConfig&, const Directory&, const ByzParams&);

/// Runs the protocol with `byzantine[i]` nodes replaced by `factory`
/// products. `max_rounds` of 0 derives a generous cap from the Lemma 3.10
/// iteration bound. Every index in `byzantine` must be < n and listed
/// once. `observers` attach to the engine; their telemetry and provenance
/// also reach every honest node, and after the run committee members get
/// a "committee" telemetry track label.
ByzRunResult run_byz_renaming(const SystemConfig& cfg, const ByzParams& params,
                              const std::vector<NodeIndex>& byzantine = {},
                              ByzStrategyFactory factory = nullptr,
                              Round max_rounds = 0,
                              sim::Observers observers = {});

/// Positional form for renaming_bench/renaming_bench.cpp, its only caller;
/// delete it once that file passes a sim::Observers.
inline ByzRunResult run_byz_renaming(
    const SystemConfig& cfg, const ByzParams& params,
    const std::vector<NodeIndex>& byzantine, ByzStrategyFactory factory,
    Round max_rounds, sim::TraceSink* trace, obs::Telemetry* telemetry,
    obs::Journal* journal, sim::parallel::ShardPlan plan) {
  return run_byz_renaming(cfg, params, byzantine, factory, max_rounds,
                          {.trace = trace, .telemetry = telemetry,
                           .journal = journal, .plan = plan});
}

}  // namespace renaming::byzantine
