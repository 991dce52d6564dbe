// Decision provenance: a deterministic causal event recorder.
//
// Telemetry answers "how much", the journal answers "what, per round" —
// provenance answers *why*: which deliveries forced node v to adopt, retry
// and finally claim its new name, and which faulty node's messages drove a
// phase over its Theorem 1.2/1.3 envelope. Protocols call note_event() at
// their decision sites with cause links (sender, wire kind, delivered bits)
// back to the logical deliveries that triggered the decision; the recorder
// resolves each cause to the causing event id, forming a DAG over the run.
//
// Contract (mirrors the journal, docs/OBSERVABILITY.md §9):
//   * deterministic: no wall clock, no unordered iteration — the exported
//     bytes are a pure function of (algorithm, config, seed), byte-identical
//     across --threads K;
//   * optional: a null recorder costs nothing;
//   * bounded: million-node mode attaches a watch-set (--trace-nodes /
//     --trace-sample) — only events at watched nodes plus their transitive
//     causes within a ring of `horizon` recent events are retained; evicted
//     causes degrade to "(evicted)" in renaming_doctor why, never to UB.
//
// Exported as RNPV v1 binary (versioned, like the journal's RNMJ) + JSONL
// + Perfetto flow arrows; consumed by `renaming_doctor why` / `blame`.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/provenance_kinds.h"
#include "sim/message.h"
#include "sim/parallel/shard.h"

namespace renaming::sim {
struct Observers;
}  // namespace renaming::sim

namespace renaming::obs {

/// Sentinel event id: cause did not resolve to a retained event.
inline constexpr std::uint64_t kNoProvEvent = ~std::uint64_t{0};

/// Max cause links stored per event; protocols pass the decision-bearing
/// deliveries (the adopted response, the majority voters) and count the
/// rest in `causes_dropped`.
inline constexpr std::size_t kMaxProvCauses = 4;

/// A resolved cause link: the logical delivery that contributed to the
/// decision, plus the causing event id when it is still retained.
struct ProvCause {
  NodeIndex sender = kNoNode;
  sim::MsgKind msg_kind = 0;
  std::uint32_t bits = 0;            ///< wire-schema bits of the delivery
  std::uint64_t event = kNoProvEvent;

  bool operator==(const ProvCause& o) const {
    return sender == o.sender && msg_kind == o.msg_kind && bits == o.bits &&
           event == o.event;
  }
};

/// One decision event. `a`/`b` are kind-specific payloads (interval bounds,
/// claimed name, verdict bit — see docs/OBSERVABILITY.md §9 for the table);
/// `subject` is the node the decision is *about* when that differs from the
/// deciding node (a committee reply about requester w has subject w).
struct ProvEvent {
  std::uint64_t id = 0;
  Round round = 0;
  NodeIndex node = kNoNode;
  NodeIndex subject = kNoNode;
  ProvEventKind kind = ProvEventKind::kNameProposal;
  sim::MsgKind msg_kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint16_t causes_dropped = 0;
  std::uint8_t cause_count = 0;
  ProvCause causes[kMaxProvCauses];

  bool operator==(const ProvEvent& o) const;
};

/// Everything one export carries; the unit the readers return and the
/// doctor's why/blame diagnose over.
struct ProvenanceData {
  std::string algorithm;
  std::uint64_t n = 0;
  std::uint64_t f = 0;
  std::uint32_t rounds = 0;
  std::uint8_t watch_mode = 0;  ///< 0 = all, 1 = explicit list, 2 = sample
  std::uint32_t watch_stride = 0;
  std::uint64_t horizon = 0;    ///< ring capacity in events (0 = unbounded)
  std::uint64_t recorded_events = 0;  ///< total recorded, incl. dropped
  std::uint64_t dropped_events = 0;
  std::vector<NodeIndex> watch_nodes;  ///< sorted, mode 1 only
  std::vector<NodeIndex> faulty;       ///< sorted marked-faulty nodes
  std::vector<ProvEvent> events;       ///< ascending id

  /// True when no event was evicted: every recorded decision is present.
  bool complete() const { return dropped_events == 0; }
};

/// Watch-set + retention configuration (all defaults = retain everything).
struct ProvenanceOptions {
  std::vector<NodeIndex> watch_nodes;  ///< explicit watch list
  NodeIndex sample = 0;  ///< watch ~sample nodes via stride n/sample
  std::uint64_t horizon = 0;  ///< pending-ring capacity in events (0 = off)
};

/// The recorder. Plumbed like Telemetry: engine + protocol nodes hold a
/// (possibly null) pointer and call the note_* hooks. A note_event inside
/// an engine fan-out goes to the calling shard's slot; the engine folds
/// the slots in shard order after the join (sim/parallel/shard.h), and the
/// fold assigns ids and resolves causes, so recording order — and
/// therefore the exported bytes — is the serial one at any thread count.
class Provenance {
 public:
  explicit Provenance(ProvenanceOptions opts = {});

  /// Cause reference as protocols see it: the delivered message's true
  /// sender, wire kind and engine-accounted bits (sim/wire_schema.h).
  struct Cause {
    NodeIndex sender = kNoNode;
    sim::MsgKind msg_kind = 0;
    std::uint32_t bits = 0;
  };

  /// Resets per-run state and sizes the frontier. Entry points call this
  /// *before* constructing nodes (protocol constructors may already record
  /// decision events, e.g. the crash protocol's initial self-election);
  /// the engine calls it again at run start, where it is a no-op for an
  /// already-active recorder of the same size — so construction-time
  /// events survive into the run — except that the recorder then follows
  /// the engine's shard map `shards` until end_run.
  void begin_run(NodeIndex n, const sim::parallel::ShardMap* shards = nullptr);
  void end_run(Round rounds);
  void note_crash(Round round, NodeIndex victim);
  void note_spoof(Round round, NodeIndex sender, NodeIndex claimed,
                  sim::MsgKind kind, std::uint32_t bits, std::uint64_t copies);

  /// A node the run knows to be faulty (Byzantine list, adaptive
  /// corruptions); `renaming_doctor blame` unions this with spoof senders.
  void mark_faulty(NodeIndex v);

  /// Protocol hook: record one decision at `node`, the node whose callback
  /// runs. Causes beyond kMaxProvCauses are counted in causes_dropped, not
  /// silently lost. Returns the event id (for tests; protocols ignore it),
  /// or kNoProvEvent inside a fan-out, where the fold assigns it.
  std::uint64_t note_event(Round round, NodeIndex node, ProvEventKind kind,
                           sim::MsgKind msg_kind, std::uint64_t a,
                           std::uint64_t b, const Cause* causes,
                           std::size_t cause_count,
                           NodeIndex subject = kNoNode);
  std::uint64_t note_event(Round round, NodeIndex node, ProvEventKind kind,
                           sim::MsgKind msg_kind, std::uint64_t a,
                           std::uint64_t b,
                           std::initializer_list<Cause> causes,
                           NodeIndex subject = kNoNode) {
    return note_event(round, node, kind, msg_kind, a, b, causes.begin(),
                      causes.size(), subject);
  }

  /// True when events at `v` are retained (not merely recorded).
  bool watched(NodeIndex v) const;

  /// Engine side: records the last fan-out's events in shard order.
  void fold_shards();

  /// Snapshot for the exporters / doctor. Call after end_run.
  ProvenanceData data() const;

 private:
  // Run identity stamped into every export; set only by
  // sim::Observers::begin(), so every run_* labels its observers alike.
  friend struct sim::Observers;
  void set_run_info(std::string algorithm, std::uint64_t n, std::uint64_t f);

  struct Pending {
    ProvEvent ev;
    bool keep = false;
  };

  /// Assigns `ev` the next id, resolves its causes and retains it.
  std::uint64_t record(ProvEvent ev);
  std::uint64_t resolve_cause(NodeIndex sender, NodeIndex about) const;
  void pin_causes(const ProvEvent& ev);
  void evict_front();

  ProvenanceOptions opts_;
  std::string algorithm_;
  std::uint64_t n_info_ = 0;
  std::uint64_t f_info_ = 0;
  Round rounds_ = 0;

  bool watch_all_ = true;
  std::uint32_t stride_ = 0;
  bool active_ = false;  ///< between begin_run and end_run

  std::uint64_t next_id_ = 0;
  std::uint64_t pending_base_ = 0;  ///< id of pending_.front()
  std::deque<Pending> pending_;
  std::vector<ProvEvent> kept_;
  std::uint64_t dropped_events_ = 0;

  /// frontier_[v] = id of the latest event recorded at node v.
  std::vector<std::uint64_t> frontier_;
  /// last_about_[(producer << 32) | subject] = latest event `producer`
  /// recorded *about* `subject` — lets a node's adoption link to the exact
  /// committee reply addressed to it rather than the member's latest event.
  /// Lookups only (never iterated); populated only for watched subjects so
  /// watch-set runs stay O(watched × committee).
  std::map<std::uint64_t, std::uint64_t> last_about_;

  std::vector<NodeIndex> faulty_;

  /// Per-shard events of the running fan-out, causes not yet resolved.
  sim::parallel::ShardSlots<std::vector<ProvEvent>> shards_;
};

/// RNPV v1 writers/readers over the shared obs/binio.h codec. The reader
/// rejects event ids that are not strictly ascending.
void write_provenance_binary(std::ostream& out, const ProvenanceData& data);
bool read_provenance_binary(std::istream& in, ProvenanceData* data,
                            std::string* error);
void write_provenance_jsonl(std::ostream& out, const ProvenanceData& data);

}  // namespace renaming::obs
