#include "baselines/cht_crash.h"

#include <algorithm>
#include <cstdint>

#include "common/math.h"
#include "core/interval.h"
#include "sim/wire_schema.h"
#include "sim/engine.h"

namespace renaming::baselines {

using sim::wire::Kind;
using sim::wire::raw;

namespace {

class ChtNode final : public sim::Node {
 public:
  ChtNode(NodeIndex self, const SystemConfig& cfg,
          obs::Provenance* provenance)
      : self_(self),
        id_(cfg.ids[self]),
        n_(cfg.n),
        bits_(sim::wire::wire_bits(Kind::kChtStatus,
                                   {cfg.n, cfg.namespace_size})),
        total_phases_(ceil_log2(cfg.n)),
        interval_(1, cfg.n),
        // Watch-set gate, resolved once: cht's receive loop touches every
        // one of the n^2 deliveries per round, so unwatched nodes must do
        // zero provenance work there (the < 2% overhead budget). Cause hops
        // from a watched node to an unwatched sender therefore resolve to
        // no retained event — the watch-set lower-bound contract.
        provenance_(provenance != nullptr && provenance->watched(self)
                        ? provenance
                        : nullptr) {}

  void send(Round, sim::Outbox& out) override {
    out.broadcast(sim::make_message(raw(Kind::kChtStatus), bits_, id_,
                                    interval_.lo, interval_.hi));
  }

  void receive(Round round, sim::InboxView inbox) override {
    phase_ = round;
    if (interval_.singleton()) return;  // decided; keep reporting only
    // The counting loop must stay free of any provenance code: a
    // loop-invariant `provenance_ != nullptr` branch inside it makes the
    // compiler unswitch the loop, and the instrumented version of this
    // all-to-all scan is what blew the < 2% overhead budget. Watched nodes
    // instead re-walk the inbox in record_halving() below with an early
    // exit after kMaxProvCauses hits.
    const Interval before = interval_;
    const Interval bot = interval_.bot();
    std::uint64_t rank = 0, occupied = 0;
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kChtStatus) || m.nwords < 3) continue;
      const Interval other(std::min(m.w[1], m.w[2]),
                           std::max(m.w[1], m.w[2]));
      if (other == interval_ && m.w[0] <= id_) ++rank;
      if (other.subset_of(bot)) ++occupied;
    }
    interval_ = (occupied + rank <= bot.size()) ? bot : interval_.top();
    if (provenance_ != nullptr) record_halving(round, before, inbox);
  }

  /// Cold path, watched nodes only: re-walk the inbox for the first
  /// kMaxProvCauses messages that ranked this node (against the interval it
  /// held when the round's counting ran — `before`) and record the halving
  /// step. Same causes, in the same delivery order, as an inline collection
  /// would have produced.
  void record_halving(Round round, const Interval& before,
                      sim::InboxView inbox) {
    obs::Provenance::Cause causes[obs::kMaxProvCauses];
    std::size_t cause_count = 0;
    for (const sim::Message& m : inbox) {
      if (m.kind != raw(Kind::kChtStatus) || m.nwords < 3) continue;
      const Interval other(std::min(m.w[1], m.w[2]),
                           std::max(m.w[1], m.w[2]));
      if (other == before && m.w[0] <= id_) {
        causes[cause_count++] = {m.sender, raw(Kind::kChtStatus), m.bits};
        if (cause_count == obs::kMaxProvCauses) break;
      }
    }
    // Halving step: a/b = the adopted half; a claim once singleton.
    provenance_->note_event(round, self_,
                            interval_.singleton()
                                ? obs::ProvEventKind::kNameClaim
                                : obs::ProvEventKind::kNameProposal,
                            raw(Kind::kChtStatus), interval_.lo, interval_.hi,
                            causes, cause_count);
  }

  bool done() const override { return phase_ >= total_phases_; }
  std::optional<NewId> new_id() const {
    if (interval_.singleton()) return interval_.lo;
    return std::nullopt;
  }
  OriginalId original_id() const { return id_; }

 private:
  NodeIndex self_;
  OriginalId id_;
  NodeIndex n_;
  sim::WireBits bits_;
  Round total_phases_;
  Round phase_ = 0;
  Interval interval_;
  obs::Provenance* provenance_;
};

// Closed-form accounting of the failure-free execution (PERFORMANCE.md
// §10). With no crashes every node broadcasts one CHT_STATUS per round for
// R = ceil_log2(n) rounds, and the halving rule degenerates to a
// deterministic binary search: the node holding the r-th smallest identity
// lands on new name r. The ledgers below replay the engine's accounting
// calls exactly — RunStats::note_messages is documented count-additive, and
// Telemetry::note_messages/note_inbox are the same bulk hooks the broadcast
// fast path uses — so stats and telemetry are bit-identical to the
// simulated run (pinned by tests/closed_form_test.cc), and the Theorem
// audit gates (obs/budget.h) see exactly the traffic the engine would have
// charged. The rounds drive the same observer lifecycle as the engine, so
// the heartbeat and shard profile see every round too. Quadratic cost
// becomes O(n log n) outcome assembly.
ChtRunResult closed_form_cht(const SystemConfig& cfg,
                             const sim::Observers& observers) {
  const NodeIndex n = cfg.n;
  const Round rounds = ceil_log2(n);
  const sim::WireBits bits =
      sim::wire::wire_bits(Kind::kChtStatus, {cfg.n, cfg.namespace_size});
  const std::uint64_t copies = static_cast<std::uint64_t>(n) * n;

  // The accumulators are 64-bit (sim/stats.h); a quadratic baseline at
  // huge n can genuinely exceed them. The simulation would be unreachable
  // long before that point — the closed form IS reachable, so it refuses
  // loudly instead of wrapping.
  RENAMING_CHECK(bits <= UINT64_MAX / copies / rounds,
                 "closed-form total bits overflow 64-bit accounting");

  ChtRunResult result;
  result.closed_form = true;
  obs::Telemetry* const tel = observers.telemetry;
  observers.on_run_begin(n, /*shards=*/nullptr);
  for (Round round = 1; round <= rounds; ++round) {
    result.stats.rounds = round;
    result.stats.per_round.push_back({});
    observers.on_round_begin(round);
    if (tel != nullptr) {
      tel->note_active_senders(n);
      tel->note_messages(raw(Kind::kChtStatus), copies, bits);
    }
    result.stats.note_messages(copies, bits);
    if (tel != nullptr) tel->note_inbox(0, n, n);  // n share one inbox
    // Every node sends every round; no outbox table exists to occupy.
    observers.on_round_end(round, result.stats, /*active_senders=*/n,
                           /*outbox_live=*/0);
  }
  observers.on_run_end(rounds);

  std::vector<OriginalId> sorted = cfg.ids;
  std::sort(sorted.begin(), sorted.end());
  result.outcomes.reserve(n);
  for (NodeIndex v = 0; v < n; ++v) {
    const NewId rank = 1 + static_cast<NewId>(
        std::lower_bound(sorted.begin(), sorted.end(), cfg.ids[v]) -
        sorted.begin());
    result.outcomes.push_back(NodeOutcome{cfg.ids[v], rank, true});
  }
  result.report = verify_renaming(result.outcomes, n);
  return result;
}

}  // namespace

ChtRunResult run_cht_renaming(const SystemConfig& cfg,
                              std::unique_ptr<sim::CrashAdversary> adversary,
                              NodeIndex closed_form_cutoff,
                              sim::Observers observers) {
  const std::uint64_t budget =
      adversary != nullptr ? adversary->budget() : 0;
  observers.begin("cht", cfg.n, budget);
  // A zero-budget adversary cannot crash anyone (the engine enforces the
  // budget), so the run is failure-free and the closed form is exact. A
  // trace or a journal needs real deliveries for its records and
  // fingerprints, a provenance recorder real decision events; n < 2 runs
  // end before round 1 (all nodes start done) — all of these always
  // simulate.
  if (closed_form_cutoff > 0 && cfg.n >= closed_form_cutoff && cfg.n >= 2 &&
      budget == 0 && !observers.needs_simulation()) {
    return closed_form_cht(cfg, observers);
  }
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<ChtNode>(v, cfg, observers.provenance));
  }
  sim::Engine engine(std::move(nodes), std::move(adversary), observers);

  ChtRunResult result;
  result.stats = engine.run(ceil_log2(cfg.n) == 0 ? 1 : ceil_log2(cfg.n));
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const ChtNode&>(engine.node(v));
    result.outcomes.push_back(
        NodeOutcome{node.original_id(), node.new_id(), engine.alive(v)});
  }
  result.report = verify_renaming(result.outcomes, cfg.n);
  return result;
}

}  // namespace renaming::baselines
