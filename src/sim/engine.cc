#include "sim/engine.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "common/check.h"
#include "obs/shard_profile.h"
#include "sim/inbox.h"
#include "sim/outbox_table.h"
#include "sim/parallel/shard.h"
#include "sim/parallel/worker_pool.h"

namespace renaming::sim {

namespace {

// Minimum node-list items per shard before a phase fans out: below this the
// fork/join handoff costs more than the callbacks (a Byzantine committee
// round runs O(log n) nodes in ~1 us). Purely a scheduling heuristic —
// results are byte-identical either way, so tuning it is always safe.
constexpr std::size_t kMinNodesPerShard = 64;

// Effective shard count for a list: never more than the plan's K, never so
// many that a shard drops under the grain, always at least 1.
unsigned effective_shards(std::size_t items, unsigned shards) {
  const std::size_t cap = items / kMinNodesPerShard;
  if (cap < 2 || shards <= 1) return 1;
  return cap < shards ? static_cast<unsigned>(cap) : shards;
}

// The run's K: the plan's shard count (by default its pool's width), 1
// without a pool, never above n — every per-shard slot set is sized by K,
// so an absurd --shards value is capped here, not allocated.
unsigned plan_shards(const parallel::ShardPlan& plan, std::size_t n) {
  if (plan.pool == nullptr) return 1;
  const std::size_t k = plan.shards != 0 ? plan.shards : plan.pool->threads();
  return static_cast<unsigned>(std::min(k, std::max<std::size_t>(n, 1)));
}

}  // namespace

Engine::Engine(std::vector<std::unique_ptr<Node>> nodes,
               std::unique_ptr<CrashAdversary> adversary,
               Observers observers)
    : nodes_(std::move(nodes)),
      adversary_(adversary ? std::move(adversary)
                           : std::make_unique<NoCrashAdversary>()),
      alive_(nodes_.size(), true),
      byzantine_(nodes_.size(), false),
      observers_(observers),
      shards_(plan_shards(observers.plan, nodes_.size())) {
  RENAMING_CHECK(!nodes_.empty(), "an engine needs at least one node");
  for (const std::unique_ptr<Node>& node : nodes_) {
    RENAMING_CHECK(node != nullptr, "every node slot must be populated");
  }
}

void Engine::mark_byzantine(NodeIndex v) {
  RENAMING_CHECK(v < nodes_.size(), "byzantine index out of range");
  byzantine_[v] = true;
  ++stats_.byzantine;
}

void Engine::check_stats_consistent() const {
  // Double-entry accounting: the per-round ledgers must reconcile exactly
  // with the run totals, or some path bypassed note_message / the crash
  // bookkeeping and every complexity figure downstream is suspect.
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t crashes = 0;
  for (const RoundStats& r : stats_.per_round) {
    messages += r.messages;
    bits += r.bits;
    crashes += r.crashes;
  }
  RENAMING_CHECK(messages == stats_.total_messages,
                 "per-round message ledger disagrees with run total");
  RENAMING_CHECK(bits == stats_.total_bits,
                 "per-round bit ledger disagrees with run total");
  RENAMING_CHECK(crashes == stats_.crashes,
                 "per-round crash ledger disagrees with run total");
  RENAMING_CHECK(stats_.per_round.size() == stats_.rounds,
                 "one per-round entry per executed round");
  RENAMING_CHECK(stats_.crashes <= adversary_->budget(),
                 "adversary exceeded its declared crash budget");
}

RunStats Engine::run(Round max_rounds) {
  const NodeIndex n = size();

  // Observers are observational: every hook below mirrors an accounting
  // site (stats/trace) without influencing behaviour, and none of them
  // picks K or the delivery path. Journal hooks fire once per copy of a
  // unicast or repeat and once per *logical* multicast or broadcast entry
  // (never per broadcast copy), keeping the attached cost within the
  // hot-path budget. Provenance records like the journal (no wall clock):
  // the engine contributes the boundary events nodes cannot see (spoof
  // rejections, crashes) and the faulty set; nodes record their own
  // decisions into their shard's slot, folded after each fan-out.
  TraceSink* const trace = observers_.trace;
  obs::Telemetry* const tel = observers_.telemetry;
  obs::Journal* const jrn = observers_.journal;
  obs::Provenance* const prov = observers_.provenance;
  obs::ShardProfile* const prof = observers_.plan.profile;

  // Shard-parallel callback execution (docs/PERFORMANCE.md §9). Only the
  // two phases whose writes are per-node by construction fan out — send
  // (each node fills its own outbox) and receive (each node mutates its
  // own state) — while the adversary and the whole delivery/accounting
  // sweep stay on this thread in their original order, so stats, traces,
  // journal bytes and delivery order cannot change by construction. A
  // serial run is K = 1 of the same fan-out.
  parallel::WorkerPool* const pool = observers_.plan.pool;

  observers_.on_run_begin(n, &shards_);
  if (prov != nullptr) {
    for (NodeIndex v = 0; v < n; ++v) {
      if (byzantine_[v]) prov->mark_faulty(v);
    }
  }

  // ----- Engine setup. All full-width (O(n)) allocations live inside the
  // marker pair below; protocol_lint R12 bans them anywhere else in this
  // file so the steady-state round provably never allocates per-node
  // vectors. Setup holds per-node *bytes* (flags and slot indices), never
  // per-node objects.
  // lint:engine-setup-begin

  // Persistent round buffers (docs/PERFORMANCE.md): per-node outboxes,
  // allocated on first send and recycled (sim/outbox_table.h), and one
  // inbox arena, reset lazily per round (sim/inbox.h), so the steady-state
  // round has no per-message allocation at all.
  OutboxTable outboxes;
  outboxes.reset(n);
  InboxArena inbox;

  // Idle fast path (docs/PERFORMANCE.md): a node's observable state only
  // changes inside its own send()/receive() callbacks, so the engine
  // tracks done/idle incrementally and re-queries exactly the nodes whose
  // callbacks ran. Nodes honouring the Node::idle contract are skipped
  // entirely while no traffic addresses them; a round where only a small
  // committee is active then costs O(active + messages), not O(n).
  std::vector<char> node_done(n, 0);
  std::vector<char> active(n, 0);       // alive and not idle
  std::vector<NodeIndex> active_list;   // ascending; the round's work list
  std::uint64_t correct_remaining = 0;  // alive, non-Byzantine, not done
  // [0, n): the destination list of every broadcast entry.
  std::vector<NodeIndex> all_dests(n);
  for (NodeIndex v = 0; v < n; ++v) {
    node_done[v] = nodes_[v]->done() ? 1 : 0;
    active[v] = (alive_[v] && !nodes_[v]->idle()) ? 1 : 0;
    if (active[v] != 0) active_list.push_back(v);
    if (alive_[v] && !byzantine_[v] && node_done[v] == 0) ++correct_remaining;
    all_dests[v] = v;
  }
  bool active_dirty = false;
  // active_list is maintained by merging newly activated nodes into the
  // (sorted) previous list instead of rescanning [0, n).
  std::vector<NodeIndex> activated;  // 0->1 transitions since last merge
  std::vector<NodeIndex> merge_scratch;
  std::vector<NodeIndex> senders;    // nodes whose send() ran this round
  std::vector<NodeIndex> receivers;  // nodes whose receive() must run
  std::vector<NodeIndex> victims;    // crashed this round
  std::vector<char> crashed_now(n, 0);

  // lint:engine-setup-end

  // Per-shard scratch: shard s writes only its own slot inside a phase
  // (done/active deltas and profile stamps).
  struct ShardScratch {
    std::int64_t remaining_delta = 0;
    bool active_dirty = false;
    std::vector<NodeIndex> activated;  // 0->1 transitions
    std::int64_t busy_begin_ns = 0;
    std::int64_t busy_end_ns = 0;
  };
  parallel::ShardSlots<ShardScratch> shard_scratch;
  shard_scratch.bind(&shards_);

  // The one way send() and receive() run: body(v, scratch) for every node
  // of an ascending list, over K contiguous shards on the pool. K = 1 is
  // the same shard body inline on this thread. shards_ tells node code
  // which shard runs it; after the join every slot set folds in shard
  // order — the engine's scratch, then the per-shard profile
  // (obs/shard_profile.h: busy is a shard's callback window, wait is from
  // its finish to the slowest finisher), then the recorders node code
  // wrote.
  auto fan_out = [&](obs::ShardPhase phase, const std::vector<NodeIndex>& list,
                     auto&& body) {
    const unsigned k = effective_shards(list.size(), shards_.capacity());
    const parallel::Partition part(list.size(), k);
    auto shard = [&](std::size_t s) {
      ShardScratch& scratch = shard_scratch[s];
      if (prof != nullptr) scratch.busy_begin_ns = obs::now_ns();
      const auto r = part.range(static_cast<unsigned>(s));
      for (std::size_t i = r.begin; i < r.end; ++i) body(list[i], scratch);
      if (prof != nullptr) scratch.busy_end_ns = obs::now_ns();
    };
    shards_.open(list, part);
    if (k == 1) {
      shard(0);
    } else {
      pool->run(k, shard);
    }
    shards_.close();
    std::int64_t join_ns = 0;
    shard_scratch.fold([&](unsigned, const ShardScratch& scratch) {
      join_ns = std::max(join_ns, scratch.busy_end_ns);
    });
    shard_scratch.fold([&](unsigned s, ShardScratch& scratch) {
      if (prof != nullptr) {
        prof->note_shard(phase, s, scratch.busy_end_ns - scratch.busy_begin_ns,
                         join_ns - scratch.busy_end_ns);
      }
      correct_remaining = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(correct_remaining) +
          scratch.remaining_delta);
      if (scratch.active_dirty) active_dirty = true;
      activated.insert(activated.end(), scratch.activated.begin(),
                       scratch.activated.end());
      scratch.remaining_delta = 0;
      scratch.active_dirty = false;
      scratch.activated.clear();
    });
    if (tel != nullptr) tel->fold_shards();
    if (prov != nullptr) prov->fold_shards();
  };

  // Re-query a node whose receive() just ran; the only place done()/idle()
  // may legally change (every alive sender also receives). Writes
  // node_done[v]/active[v] (distinct elements, safe shard-parallel) and
  // accumulates the two shared counters into the shard's scratch.
  // Activations are recorded too, so the active-list merge never has to
  // rescan [0, n).
  auto refresh_into = [&](NodeIndex v, ShardScratch& scratch) {
    const bool d = nodes_[v]->done();
    if (d != (node_done[v] != 0)) {
      node_done[v] = d ? 1 : 0;
      if (!byzantine_[v]) scratch.remaining_delta += d ? -1 : 1;
    }
    const bool a = !nodes_[v]->idle();
    if (a != (active[v] != 0)) {
      active[v] = a ? 1 : 0;
      scratch.active_dirty = true;
      if (a) scratch.activated.push_back(v);
    }
  };

  // The destinations of one queued entry, in delivery order: a unicast's
  // own link, a multicast's or repeat's list, a broadcast's [0, n). `mc`
  // counts the sender's multicast and repeat entries walked so far.
  auto dests_of = [&](const Outbox& ob,
                      const std::pair<NodeIndex, Message>& entry,
                      std::size_t& mc) -> std::span<const NodeIndex> {
    if (entry.first == Outbox::kBroadcast) return all_dests;
    if (entry.first == Outbox::kMulticast || entry.first == Outbox::kRepeat) {
      return ob.multicast_dests(mc++);
    }
    return {&entry.first, 1};
  };

  for (Round round = 1; round <= max_rounds; ++round) {
    if (correct_remaining == 0) break;
    stats_.rounds = round;
    stats_.per_round.push_back({});
    for (NodeIndex v : victims) crashed_now[v] = 0;
    victims.clear();
    observers_.on_round_begin(round);

    const std::int64_t merge_begin_ns = prof != nullptr ? obs::now_ns() : 0;
    if (active_dirty) {
      // Merge the newly activated nodes into the sorted previous list,
      // dropping anything that crashed or went idle since. Produces exactly
      // the ascending v with alive_[v] && active[v] that a full rescan
      // would, in O(|old| + |new| log |new|), never O(n).
      std::sort(activated.begin(), activated.end());
      activated.erase(std::unique(activated.begin(), activated.end()),
                      activated.end());
      merge_scratch.clear();
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < active_list.size() || j < activated.size()) {
        NodeIndex v;
        if (j == activated.size()) {
          v = active_list[i++];
        } else if (i == active_list.size()) {
          v = activated[j++];
        } else if (active_list[i] < activated[j]) {
          v = active_list[i++];
        } else if (activated[j] < active_list[i]) {
          v = activated[j++];
        } else {
          v = active_list[i++];
          ++j;
        }
        if (alive_[v] && active[v] != 0) merge_scratch.push_back(v);
      }
      std::swap(active_list, merge_scratch);
      activated.clear();
      active_dirty = false;
    }
    if (prof != nullptr) {
      prof->note_serial(obs::ShardPhase::kMerge,
                        obs::now_ns() - merge_begin_ns);
    }

    // --- Send phase: every active alive node queues its messages. -------
    // Idle nodes are skipped under the Node::idle contract (their send()
    // would queue nothing). Every outbox is empty at this point: the ones
    // used last round were cleared at the end of it.
    senders = active_list;
    if (tel != nullptr) tel->note_active_senders(senders.size());
    if (jrn != nullptr) jrn->note_active_senders(senders.size());
    // Each node writes only its own outbox, and delivery below walks the
    // outboxes in ascending sender order regardless of which thread filled
    // them. Outbox allocation is serial-only, so every sender's outbox is
    // ensured up front; after that, get() is safe from any shard.
    for (NodeIndex v : senders) outboxes.ensure(v);
    fan_out(obs::ShardPhase::kSend, senders, [&](NodeIndex v, ShardScratch&) {
      nodes_[v]->send(round, outboxes.get(v));
    });

    // --- Adversary phase: Eve may crash nodes, possibly mid-send. ------
    // Profiled together with delivery below as the serial kDeliver lane:
    // both are order-sensitive sweeps pinned to this thread.
    const std::int64_t deliver_begin_ns = prof != nullptr ? obs::now_ns() : 0;
    AdversaryView view{round, n, &alive_, &outboxes, &nodes_};
    for (CrashOrder& order : adversary_->decide(view)) {
      const NodeIndex v = order.victim;
      RENAMING_CHECK(v < n, "crash order names a node outside the system");
      if (!alive_[v]) continue;
      RENAMING_CHECK(!byzantine_[v],
                     "Byzantine nodes do not crash in this model");
      alive_[v] = false;
      crashed_now[v] = 1;
      victims.push_back(v);
      if (active[v] != 0) {
        active[v] = 0;
        active_dirty = true;
      }
      if (!byzantine_[v] && node_done[v] == 0) --correct_remaining;
      ++stats_.crashes;
      ++stats_.per_round.back().crashes;
      // The cut (Outbox::keep) keeps what the adversary lets escape, in the
      // copy index space, so it may stop a broadcast anywhere mid-fanout.
      // ensure(): an idle victim has no outbox yet — it presents
      // (correctly) as empty, so any non-empty keep list trips keep()'s
      // check.
      Outbox& victim_box = outboxes.ensure(v);
      observers_.on_crash(round, v, order.keep.size(), victim_box.size());
      victim_box.keep(std::move(order.keep));
    }

    // --- Delivery phase: authenticate, account, deliver. ---------------
    // The inbox module lays the round out (sim/inbox.h): pass 1 hands it
    // every entry's destination list, and it chooses one shared slot list
    // or per-node slices; pass 2 walks the same entries in order and hands
    // it the unspoofed ones, so inbox order is exactly sender-index-
    // ascending, send order within a sender — identical to delivering
    // every copy individually. Only the senders' outboxes can hold entries,
    // so both passes iterate `senders` (ascending). A trace takes its
    // per-copy events from the accounting walk below, whatever the layout.
    inbox.begin_round(alive_);
    for (NodeIndex v : senders) {
      const Outbox& ob = outboxes.get(v);
      std::size_t mc = 0;
      for (const auto& entry : ob.entries()) {
        inbox.expect(dests_of(ob, entry, mc));
      }
    }
    inbox.commit();

    for (NodeIndex v : senders) {
      // A node felled in an earlier round is never a sender; only this
      // round's victims may still have (adversary-kept) entries.
      RENAMING_CHECK(alive_[v] || crashed_now[v] != 0,
                     "crashed node sent messages after falling");
      const Outbox& ob = outboxes.get(v);
      std::size_t mc = 0;
      for (const auto& entry : ob.entries()) {
        const Message& msg = entry.second;
        RENAMING_CHECK(msg.sender == v, "engine stamps the true origin");
        RENAMING_CHECK(msg.bits > 0,
                       "every message must declare a wire size");
        const std::span<const NodeIndex> dests = dests_of(ob, entry, mc);
        const bool spoofed = msg.spoofed();
        // Journal entries and spoof instants are per copy for a unicast and
        // a repeat (a coalesced repeat is indistinguishable from its
        // send() sequence), and per logical entry for a multicast and a
        // broadcast, which keeps those fast paths O(1) per entry.
        const bool per_copy = entry.first != Outbox::kMulticast &&
                              entry.first != Outbox::kBroadcast;
        // Every copy left the sender: it counts toward complexity even if
        // its destination has crashed (the sender still paid for it).
        stats_.note_messages(dests.size(), msg.bits);
        if (tel != nullptr) {
          tel->note_messages(msg.kind, dests.size(), msg.bits);
          const std::size_t instants = per_copy ? dests.size() : 1;
          for (std::size_t i = 0; spoofed && i < instants; ++i) {
            tel->note_spoof(round, v, msg.kind);
          }
        }
        if (jrn != nullptr) {
          if (per_copy) {
            for (NodeIndex d : dests) jrn->note_unicast(msg, d);
          } else if (entry.first == Outbox::kMulticast) {
            jrn->note_multicast(msg, dests);
          } else {
            jrn->note_broadcast(msg, n);
          }
        }
        if (prov != nullptr && spoofed) {
          prov->note_spoof(round, v, msg.claimed_sender, msg.kind, msg.bits,
                           dests.size());
        }
        if (trace != nullptr) {
          for (NodeIndex d : dests) {
            trace->on_message(round, msg, d, !spoofed && alive_[d]);
          }
        }
        if (spoofed) {
          // Authentication (PKI assumption of Theorem 1.3): forged origins
          // are detected by every receiver and discarded.
          stats_.spoofs_rejected += dests.size();
        } else {
          inbox.deliver(msg, dests);
        }
      }
    }
    if (prof != nullptr) {
      prof->note_serial(obs::ShardPhase::kDeliver,
                        obs::now_ns() - deliver_begin_ns);
    }

    // --- Receive phase. -------------------------------------------------
    // The inbox's slots point into the outboxes, which stay untouched until
    // the end-of-round clear below. receive() runs for every alive node
    // whose send() ran (even with an empty inbox — stage machines may
    // advance on silence) plus every idle node that was actually addressed;
    // an idle node with an empty inbox is a no-op by contract and skipped.
    // active[v] == 1 exactly for the alive senders, so the addressed idle
    // nodes are the inactive ones among the alive addressed nodes.
    receivers.clear();
    for (NodeIndex v : senders) {
      if (alive_[v]) receivers.push_back(v);
    }
    const std::size_t idle_begin = receivers.size();
    inbox.for_each_addressed([&](NodeIndex v) {
      if (active[v] == 0) receivers.push_back(v);
    });
    if (idle_begin != receivers.size()) {
      // Both halves ascending, then one merge: a round led by a broadcast
      // addresses [0, n) in order and skips the sort.
      const auto mid =
          receivers.begin() + static_cast<std::ptrdiff_t>(idle_begin);
      if (!std::is_sorted(mid, receivers.end())) {
        std::sort(mid, receivers.end());
      }
      merge_scratch.clear();
      std::merge(receivers.begin(), mid, mid, receivers.end(),
                 std::back_inserter(merge_scratch));
      std::swap(receivers, merge_scratch);
    }
    fan_out(obs::ShardPhase::kReceive, receivers,
            [&](NodeIndex v, ShardScratch& scratch) {
              const InboxView in = inbox.view(v);
              if (tel != nullptr) tel->note_inbox(v, in.size());
              nodes_[v]->receive(round, in);
              refresh_into(v, scratch);
            });

    // End-of-round clear: only senders (including this round's victims,
    // whose kept entries were just delivered) can hold entries, so this
    // restores the all-outboxes-empty invariant in O(senders). The
    // outboxes of nodes that just went quiet (crashed, done-and-idle) go
    // back to the pool, keeping the live outbox count at O(active) across
    // the run.
    for (NodeIndex v : senders) {
      outboxes.get(v).clear();
      if (!alive_[v] || active[v] == 0) outboxes.release(v);
    }
    observers_.on_round_end(round, stats_, senders.size(), outboxes.live());
  }

  observers_.on_run_end(stats_.rounds);
  check_stats_consistent();
  return stats_;
}

}  // namespace renaming::sim
