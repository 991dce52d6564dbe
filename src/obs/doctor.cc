#include "obs/doctor.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "hashing/digest.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

namespace {

/// Digest of one whole record (everything operator== compares), used to
/// build the chained prefix digests the bisection runs on.
std::uint64_t record_digest(const JournalRound& r) {
  hashing::RollingDigest d;
  d.mix(r.round);
  d.mix(r.fingerprint);
  d.mix(r.messages);
  d.mix(r.bits);
  d.mix(r.max_message_bits);
  d.mix(r.active_senders);
  d.mix(r.kinds.size());
  for (const JournalKindCount& k : r.kinds) {
    d.mix(k.kind);
    d.mix(k.messages);
    d.mix(k.bits);
  }
  d.mix(r.events.size());
  for (const JournalEvent& e : r.events) {
    d.mix((static_cast<std::uint64_t>(e.kind) << 48) |
          (static_cast<std::uint64_t>(e.msg_kind) << 32) | e.node);
  }
  return d.value();
}

/// First round number of the records (journals record consecutive rounds,
/// which read_journal_binary enforces; a bounded ring drops the front).
Round first_round(const JournalData& j) {
  return j.records.empty() ? 0 : j.records.front().round;
}
Round last_round(const JournalData& j) {
  return j.records.empty() ? 0 : j.records.back().round;
}

const JournalRound& record_at(const JournalData& j, Round r) {
  // Wraps to a huge index when r precedes the first record.
  const std::size_t i = std::size_t{r} - first_round(j);
  RENAMING_CHECK(i < j.records.size(),
                 "journal records must hold consecutive rounds");
  return j.records[i];
}

void describe_events(std::ostringstream& out, const JournalRound& r) {
  if (r.events.empty()) {
    out << "(none)";
    return;
  }
  bool first = true;
  for (const JournalEvent& e : r.events) {
    if (!first) out << ", ";
    first = false;
    if (e.kind == JournalEvent::Kind::kCrash) {
      out << "crash node " << e.node;
    } else {
      out << "spoof-rejected node " << e.node << " ("
          << sim::message_name(e.msg_kind) << ")";
    }
  }
}

}  // namespace

DivergenceReport diagnose_divergence(const JournalData& a,
                                     const JournalData& b) {
  DivergenceReport rep;
  std::ostringstream out;

  if (a.algorithm != b.algorithm || a.n != b.n) {
    rep.verdict = DivergenceReport::Verdict::kIncomparable;
    out << "journals are not comparable: run [" << a.algorithm
        << " n=" << a.n << "] vs [" << b.algorithm << " n=" << b.n << "]\n";
    rep.explanation = out.str();
    return rep;
  }

  const Round lo = std::max(first_round(a), first_round(b));
  const Round hi = std::min(last_round(a), last_round(b));
  if (a.records.empty() || b.records.empty() || lo > hi) {
    rep.verdict = DivergenceReport::Verdict::kIncomparable;
    out << "journals have no overlapping round range (ring-buffer windows "
           "do not intersect)\n";
    rep.explanation = out.str();
    return rep;
  }

  // Chained prefix digests over the overlap: chain[i] summarizes records
  // lo..lo+i, so "prefixes agree up to i" is one 64-bit compare and the
  // first divergent round falls out of a classic bisection.
  const std::size_t len = hi - lo + 1;
  std::vector<std::uint64_t> chain_a(len), chain_b(len);
  hashing::RollingDigest da, db;
  for (std::size_t i = 0; i < len; ++i) {
    da.mix_digest(record_digest(record_at(a, lo + static_cast<Round>(i))));
    db.mix_digest(record_digest(record_at(b, lo + static_cast<Round>(i))));
    chain_a[i] = da.value();
    chain_b[i] = db.value();
  }

  std::size_t divergent = len;  // index of the first differing prefix
  if (chain_a[len - 1] != chain_b[len - 1]) {
    std::size_t good = 0;  // prefixes strictly before `good` agree
    std::size_t bad = len - 1;
    if (chain_a[0] != chain_b[0]) {
      divergent = 0;
      ++rep.probes;
    } else {
      ++rep.probes;
      while (bad - good > 1) {
        const std::size_t mid = good + (bad - good) / 2;
        ++rep.probes;
        if (chain_a[mid] == chain_b[mid]) {
          good = mid;
        } else {
          bad = mid;
        }
      }
      divergent = bad;
    }
  } else {
    ++rep.probes;
  }

  if (divergent == len) {
    // Overlap identical; runs can still differ in length or in rounds the
    // ring dropped on one side.
    if (a.rounds != b.rounds || a.total_messages != b.total_messages ||
        a.total_bits != b.total_bits) {
      rep.verdict = DivergenceReport::Verdict::kDiverged;
      rep.first_divergent_round = hi + 1;
      out << "journals agree on every overlapping round (" << lo << ".." << hi
          << ") but the runs differ beyond it:\n"
          << "  rounds " << a.rounds << " vs " << b.rounds
          << ", total messages " << a.total_messages << " vs "
          << b.total_messages << ", total bits " << a.total_bits << " vs "
          << b.total_bits << "\n"
          << "  first divergent round is after the common range, at round "
          << rep.first_divergent_round << " or in dropped records\n";
      rep.explanation = out.str();
      return rep;
    }
    rep.verdict = DivergenceReport::Verdict::kIdentical;
    out << "journals are identical over rounds " << lo << ".." << hi << " ("
        << len << " records, " << rep.probes << " digest probes)\n";
    rep.explanation = out.str();
    return rep;
  }

  const Round r = lo + static_cast<Round>(divergent);
  rep.verdict = DivergenceReport::Verdict::kDiverged;
  rep.first_divergent_round = r;
  const JournalRound& ra = record_at(a, r);
  const JournalRound& rb = record_at(b, r);

  out << "first divergent round: " << r << "  (bisected over rounds " << lo
      << ".." << hi << " in " << rep.probes << " digest probes)\n";
  out << "  fingerprint: " << ra.fingerprint << " vs " << rb.fingerprint
      << "\n";

  // Kind-level drill-down: merge the two sorted per-kind tables.
  std::size_t ia = 0, ib = 0;
  while (ia < ra.kinds.size() || ib < rb.kinds.size()) {
    JournalKindCount ka =
        ia < ra.kinds.size() ? ra.kinds[ia] : JournalKindCount{0xffff, 0, 0};
    JournalKindCount kb =
        ib < rb.kinds.size() ? rb.kinds[ib] : JournalKindCount{0xffff, 0, 0};
    KindDelta d;
    if (ka.kind < kb.kind) {
      d = {ka.kind, ka.messages, 0, ka.bits, 0};
      ++ia;
    } else if (kb.kind < ka.kind) {
      d = {kb.kind, 0, kb.messages, 0, kb.bits};
      ++ib;
    } else {
      d = {ka.kind, ka.messages, kb.messages, ka.bits, kb.bits};
      ++ia;
      ++ib;
    }
    if (d.a_messages != d.b_messages || d.a_bits != d.b_bits) {
      rep.kind_deltas.push_back(d);
      out << "  kind " << sim::message_name(d.kind) << " (" << d.kind
          << "): messages " << d.a_messages << " vs " << d.b_messages
          << ", bits " << d.a_bits << " vs " << d.b_bits << "\n";
    }
  }

  if (ra.active_senders != rb.active_senders) {
    out << "  active senders: " << ra.active_senders << " vs "
        << rb.active_senders << "\n";
  }
  if (ra.events != rb.events) {
    out << "  events: ";
    describe_events(out, ra);
    out << "  vs  ";
    describe_events(out, rb);
    out << "\n";
  }

  rep.counts_match = rep.kind_deltas.empty() &&
                     ra.messages == rb.messages && ra.bits == rb.bits &&
                     ra.active_senders == rb.active_senders &&
                     ra.events == rb.events;
  if (rep.counts_match) {
    out << "  every count matches — the deliveries differ only in payload, "
           "ordering or destination contents\n";
  }
  rep.explanation = out.str();
  return rep;
}

sim::RunStats stats_from_journal(const JournalData& data) {
  RENAMING_CHECK(data.complete(),
                 "stats_from_journal needs a complete (unbounded) journal");
  sim::RunStats stats;
  stats.total_messages = data.total_messages;
  stats.total_bits = data.total_bits;
  stats.rounds = data.rounds;
  stats.crashes = data.crashes;
  stats.spoofs_rejected = data.spoofs_rejected;
  stats.max_message_bits = data.max_message_bits;
  for (const JournalRound& r : data.records) {
    sim::RoundStats rs;
    rs.messages = r.messages;
    rs.bits = r.bits;
    for (const JournalEvent& e : r.events) {
      if (e.kind == JournalEvent::Kind::kCrash) ++rs.crashes;
    }
    stats.per_round.push_back(rs);
  }
  return stats;
}

std::array<PhaseTotals, kPhaseCount> phases_from_journal(
    const JournalData& data) {
  std::array<PhaseTotals, kPhaseCount> phases{};
  for (const JournalRound& r : data.records) {
    for (const JournalKindCount& k : r.kinds) {
      PhaseTotals& t =
          phases[static_cast<std::size_t>(sim::canonical_phase(k.kind))];
      t.messages += k.messages;
      t.bits += k.bits;
    }
  }
  return phases;
}

std::vector<KindTotals> kinds_from_journal(const JournalData& data) {
  // Journals keep per-round kind rows in ascending kind order; fold them
  // into one run-total ledger, preserving the ordering.
  std::map<sim::MsgKind, KindTotals> fold;
  for (const JournalRound& r : data.records) {
    for (const JournalKindCount& k : r.kinds) {
      KindTotals& t = fold[k.kind];
      t.kind = k.kind;
      t.messages += k.messages;
      t.bits += k.bits;
    }
  }
  std::vector<KindTotals> kinds;
  kinds.reserve(fold.size());
  for (const auto& [kind, t] : fold) kinds.push_back(t);
  return kinds;
}

namespace {

/// Events arrive ascending by id; resolve an id to its record (nullptr if
/// the ring evicted it).
const ProvEvent* event_by_id(const std::vector<ProvEvent>& events,
                             std::uint64_t id) {
  const auto it = std::lower_bound(
      events.begin(), events.end(), id,
      [](const ProvEvent& e, std::uint64_t want) { return e.id < want; });
  if (it == events.end() || it->id != id) return nullptr;
  return &*it;
}

bool provenance_watched(const ProvenanceData& data, NodeIndex v) {
  if (data.watch_mode == 1) {
    return std::binary_search(data.watch_nodes.begin(),
                              data.watch_nodes.end(), v);
  }
  if (data.watch_mode == 2) {
    return data.watch_stride > 0 && v % data.watch_stride == 0;
  }
  return true;
}

void describe_prov_event(std::ostringstream& out, const ProvEvent& e) {
  out << "r" << e.round << " " << prov_event_name(e.kind);
  switch (e.kind) {
    case ProvEventKind::kNameProposal:
      out << ": interval [" << e.a << ".." << e.b << "]";
      break;
    case ProvEventKind::kNameClaim:
      out << ": new id " << e.a;
      if (e.b > 0) out << " (support " << e.b << ")";
      break;
    case ProvEventKind::kConflictRetry:
      out << ": retry " << e.a;
      break;
    case ProvEventKind::kCommitteeVote:
      if (e.subject != kNoNode) out << " about node " << e.subject;
      out << ": [" << e.a << ".." << e.b << "]";
      break;
    case ProvEventKind::kPhaseKingVerdict:
      out << ": bit " << e.a << " (session " << e.b << ")";
      break;
    case ProvEventKind::kSpoofReject:
      out << ": forged sender " << e.a << ", " << e.b
          << " wire bits discarded";
      break;
    case ProvEventKind::kCrashObserved:
      break;
  }
  if (e.msg_kind != 0 && e.kind != ProvEventKind::kSpoofReject) {
    out << " via " << sim::message_name(e.msg_kind);
  }
}

/// Renders one cause hop and (depth permitting) its transitive expansion.
void render_cause(std::ostringstream& out, const ProvenanceData& data,
                  const ProvCause& c, int indent, int depth) {
  out << std::string(static_cast<std::size_t>(indent), ' ') << "<- node "
      << c.sender << " " << sim::message_name(c.msg_kind) << " (" << c.bits
      << " bits)";
  if (c.event == kNoProvEvent) {
    out << " [no retained cause event]\n";
    return;
  }
  const ProvEvent* cause = event_by_id(data.events, c.event);
  if (cause == nullptr) {
    out << " [event #" << c.event << " evicted from horizon]\n";
    return;
  }
  out << " because ";
  describe_prov_event(out, *cause);
  out << "\n";
  if (depth <= 0) {
    if (cause->cause_count > 0) {
      out << std::string(static_cast<std::size_t>(indent + 2), ' ')
          << "... (chain truncated at render depth)\n";
    }
    return;
  }
  for (std::uint8_t i = 0; i < cause->cause_count; ++i) {
    render_cause(out, data, cause->causes[i], indent + 2, depth - 1);
  }
}

}  // namespace

WhyReport diagnose_why(const ProvenanceData& data, NodeIndex node) {
  WhyReport rep;
  rep.node = node;
  rep.watched = provenance_watched(data, node);
  std::ostringstream out;
  out << "why [" << data.algorithm << " n=" << data.n << " f=" << data.f
      << "] node " << node << ":\n";

  std::vector<const ProvEvent*> chain;
  for (const ProvEvent& e : data.events) {
    if (e.node == node) chain.push_back(&e);
  }
  rep.found = !chain.empty();
  rep.chain_events = chain.size();
  if (chain.empty()) {
    if (!rep.watched) {
      out << "  node " << node
          << " is outside the watch-set — re-record with --trace-nodes "
          << node << " (or a wider --trace-sample)\n";
    } else if (!data.complete()) {
      out << "  no decision events retained for this node ("
          << data.dropped_events
          << " events evicted by the bounded horizon)\n";
    } else {
      out << "  no decision events recorded for this node\n";
    }
    rep.explanation = out.str();
    return rep;
  }

  for (const ProvEvent* e : chain) {
    out << "  ";
    describe_prov_event(out, *e);
    out << "\n";
    for (std::uint8_t i = 0; i < e->cause_count; ++i) {
      rep.cause_bits += e->causes[i].bits;
      render_cause(out, data, e->causes[i], 4, 4);
    }
    if (e->causes_dropped > 0) {
      out << "    (+" << e->causes_dropped << " further cause links)\n";
    }
    if (e->kind == ProvEventKind::kNameClaim) rep.final_name = e->a;
  }

  if (rep.final_name != kNoNewId) {
    out << "  => final name " << rep.final_name << " after "
        << chain.size() << " decision events; " << rep.cause_bits
        << " wire bits fed the chain's direct causes\n";
  } else {
    out << "  => no name-claim retained for node " << node << " ("
        << chain.size() << " decision events rendered)\n";
  }
  rep.explanation = out.str();
  return rep;
}

BlameReport diagnose_blame(const ProvenanceData& data) {
  BlameReport rep;
  std::ostringstream out;

  std::vector<NodeIndex> faulty = data.faulty;
  for (const ProvEvent& e : data.events) {
    if (e.kind == ProvEventKind::kSpoofReject) faulty.push_back(e.node);
  }
  std::sort(faulty.begin(), faulty.end());
  faulty.erase(std::unique(faulty.begin(), faulty.end()), faulty.end());

  out << "blame [" << data.algorithm << " n=" << data.n << " f=" << data.f
      << "]:\n";
  if (faulty.empty()) {
    out << "  no faulty nodes marked and no spoof rejections recorded — "
           "nothing to blame\n";
    rep.explanation = out.str();
    return rep;
  }

  const auto is_faulty = [&faulty](NodeIndex v) {
    return std::binary_search(faulty.begin(), faulty.end(), v);
  };

  std::map<NodeIndex, BlameEntry> entries;
  for (NodeIndex v : faulty) entries[v].node = v;
  // Forward adjacency over retained cause links, for the downstream sweep.
  std::map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < data.events.size(); ++i) {
    const ProvEvent& e = data.events[i];
    if (e.kind == ProvEventKind::kSpoofReject && is_faulty(e.node)) {
      BlameEntry& en = entries[e.node];
      en.direct_bits += e.b;
      en.spoof_bits += e.b;
      ++en.spoof_events;
    }
    for (std::uint8_t c = 0; c < e.cause_count; ++c) {
      const ProvCause& cause = e.causes[c];
      if (is_faulty(cause.sender)) {
        entries[cause.sender].direct_bits += cause.bits;
      }
      if (cause.event != kNoProvEvent) children[cause.event].push_back(i);
    }
  }

  // Downstream reach: decisions transitively influenced by any delivery or
  // event of the faulty node, counted over the retained DAG.
  for (auto& [node, entry] : entries) {
    std::vector<std::size_t> stack;
    std::vector<char> visited(data.events.size(), 0);
    for (std::size_t i = 0; i < data.events.size(); ++i) {
      const ProvEvent& e = data.events[i];
      bool seed = e.node == node;
      for (std::uint8_t c = 0; c < e.cause_count && !seed; ++c) {
        seed = e.causes[c].sender == node;
      }
      if (seed && visited[i] == 0) {
        visited[i] = 1;
        stack.push_back(i);
      }
    }
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      if (data.events[i].node != node) ++entry.downstream_events;
      const auto it = children.find(data.events[i].id);
      if (it == children.end()) continue;
      for (std::size_t child : it->second) {
        if (visited[child] == 0) {
          visited[child] = 1;
          stack.push_back(child);
        }
      }
    }
  }

  for (const auto& [node, entry] : entries) rep.ranking.push_back(entry);
  std::sort(rep.ranking.begin(), rep.ranking.end(),
            [](const BlameEntry& x, const BlameEntry& y) {
              if (x.direct_bits != y.direct_bits) {
                return x.direct_bits > y.direct_bits;
              }
              return x.node < y.node;
            });

  std::size_t rank = 1;
  for (const BlameEntry& e : rep.ranking) {
    out << "  " << rank++ << ". node " << e.node << ": " << e.direct_bits
        << " wire bits induced";
    if (e.spoof_events > 0) {
      out << " (" << e.spoof_bits << " bits across " << e.spoof_events
          << " rejected forgeries)";
    }
    out << ", " << e.downstream_events
        << " downstream decisions influenced\n";
  }
  if (!data.complete()) {
    out << "  note: " << data.dropped_events
        << " events were evicted by the bounded horizon — influence is a "
           "lower bound\n";
  }
  rep.explanation = out.str();
  return rep;
}

AuditDiagnosis diagnose_audit(const BudgetParams& params,
                              const JournalData& journal) {
  AuditDiagnosis diag;
  const std::vector<EnvelopeTerm> terms =
      params.n == 0 ? std::vector<EnvelopeTerm>{}
                    : message_envelope_terms(params);
  if (!journal.complete()) {
    diag.error = "recorded with a bounded ring (" +
                 std::to_string(journal.dropped_rounds) +
                 " rounds dropped); an audit needs the full run";
  } else if (terms.empty()) {
    diag.error = "no theory budget for algorithm '" + params.algorithm +
                 "' at n=" + std::to_string(params.n);
  }
  if (!diag.error.empty()) {
    diag.ok = false;
    return diag;
  }
  const sim::RunStats stats = stats_from_journal(journal);
  const std::array<PhaseTotals, kPhaseCount> phases =
      phases_from_journal(journal);
  const std::vector<KindTotals> kinds = kinds_from_journal(journal);
  diag.report = audit_run(params, stats, phases, &kinds);
  diag.ok = diag.report.ok();

  // Per-phase round-level traffic shape, for every phase the audit priced.
  for (const BudgetLine& l : diag.report.lines) {
    if (l.quantity.rfind("phase:", 0) != 0) continue;
    // "phase:<name> messages"
    const std::string name =
        l.quantity.substr(6, l.quantity.size() - 6 - sizeof(" messages") + 1);
    PhaseBreakdown pb;
    pb.phase = PhaseId::kUnattributed;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (name == phase_name(static_cast<PhaseId>(i))) {
        pb.phase = static_cast<PhaseId>(i);
      }
    }
    pb.measured = l.measured;
    pb.budget = l.budget;
    pb.overshoot = l.budget > 0 ? l.measured / l.budget
                                : (l.measured > 0 ? 2.0 : 0.0);
    pb.violated = !l.ok;

    // Per-round message counts of this phase.
    std::vector<std::uint64_t> per_round;
    per_round.reserve(journal.records.size());
    std::uint64_t total = 0;
    for (const JournalRound& r : journal.records) {
      std::uint64_t m = 0;
      for (const JournalKindCount& k : r.kinds) {
        if (sim::canonical_phase(k.kind) == pb.phase) m += k.messages;
      }
      per_round.push_back(m);
      total += m;
      if (m > pb.peak_messages) {
        pb.peak_messages = m;
        pb.peak_round = r.round;
      }
    }
    // Minimal contiguous window carrying >= 90% of the phase's traffic.
    if (total > 0) {
      const std::uint64_t target = total - total / 10;
      std::size_t best_lo = 0, best_hi = per_round.size() - 1;
      std::uint64_t best_sum = total;
      std::uint64_t sum = 0;
      std::size_t left = 0;
      for (std::size_t right = 0; right < per_round.size(); ++right) {
        sum += per_round[right];
        while (sum - per_round[left] >= target && left < right) {
          sum -= per_round[left];
          ++left;
        }
        if (sum >= target && right - left < best_hi - best_lo) {
          best_lo = left;
          best_hi = right;
          best_sum = sum;
        }
      }
      const Round base = journal.records.front().round;
      pb.window_begin = base + static_cast<Round>(best_lo);
      pb.window_end = base + static_cast<Round>(best_hi);
      pb.window_messages = best_sum;
    }
    diag.phases.push_back(pb);
  }
  std::stable_sort(diag.phases.begin(), diag.phases.end(),
                   [](const PhaseBreakdown& x, const PhaseBreakdown& y) {
                     if (x.violated != y.violated) return x.violated;
                     return x.overshoot > y.overshoot;
                   });

  for (const EnvelopeTerm& t : terms) {
    if (t.value > diag.dominant_term_value) {
      diag.dominant_term_value = t.value;
      diag.dominant_term = t.name;
    }
  }

  std::ostringstream out;
  out << "audit [" << params.algorithm << " n=" << params.n
      << " f=" << params.f << "]: " << (diag.ok ? "PASS" : "FAIL") << "\n";
  out << "  dominating envelope term: " << diag.dominant_term << " = "
      << diag.dominant_term_value << "\n";
  for (const PhaseBreakdown& pb : diag.phases) {
    out << "  " << (pb.violated ? "VIOLATION " : "ok        ")
        << phase_name(pb.phase) << ": " << pb.measured << " msgs vs budget "
        << pb.budget << " (" << pb.overshoot << "x)";
    if (pb.window_messages > 0) {
      out << "; rounds " << pb.window_begin << ".." << pb.window_end
          << " carry " << pb.window_messages << " msgs (>=90%), peak round "
          << pb.peak_round << " with " << pb.peak_messages;
    }
    out << "\n";
  }
  for (const BudgetLine& l : diag.report.lines) {
    if (l.quantity.rfind("phase:", 0) == 0 || l.ok) continue;
    out << "  VIOLATION " << l.quantity << ": measured " << l.measured
        << " vs budget " << l.budget << "\n";
  }
  diag.explanation = out.str();
  return diag;
}

}  // namespace renaming::obs
