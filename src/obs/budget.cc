#include "obs/budget.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

using sim::wire::Kind;

namespace {

/// Wire context for schema lookups; namespace clamped like Scales so a
/// degenerate params struct (negative-fixture tests) stays well-defined.
sim::wire::WireContext wire_ctx(const BudgetParams& p) {
  return {p.n, std::max<std::uint64_t>(2, p.namespace_size)};
}

/// True when every accounted message carries its honest schema width.
/// Crash-model adversaries drop and crash but never forge, so those runs
/// are always honest-wire; the Byzantine-model family (byz, byz-full, obg)
/// ships self-declared adversarial widths whenever f > 0 (strategies.h
/// probes, padded vectors), which would poison an exact per-kind check.
bool honest_wire(const BudgetParams& p) {
  const bool byz_model = p.algorithm == "byz" || p.algorithm == "byz-full" ||
                         p.algorithm == "obg";
  return !byz_model || p.f == 0;
}

/// Shared scale quantities every envelope is phrased in.
struct Scales {
  double n, f, logn, logN;
  explicit Scales(const BudgetParams& p)
      : n(static_cast<double>(p.n)),
        f(static_cast<double>(p.f)),
        logn(static_cast<double>(protocol_log(p.n))),
        logN(static_cast<double>(
            ceil_log2(std::max<std::uint64_t>(2, p.namespace_size)))) {}
};

/// Theorem 1.2's message envelope: O((f + log n) n log n) with the
/// EXPERIMENTS.md-calibrated constant (band 2.4-7.8, >= 3x headroom).
double crash_msgs_envelope(const BudgetParams& p) {
  const Scales s(p);
  return 24.0 * (s.f + s.logn) * s.n * s.logn;
}

/// The Byzantine envelope's named pieces (Theorem 1.3 + the structural
/// committee-loop bound); the audited budget is max(theorem, structural()).
struct ByzEnvelope {
  double m_cap = 0, iter_cap = 0;
  double theorem_msgs = 0;
  double elect_msgs = 0, aggregate_msgs = 0, distribute_msgs = 0,
         loop_msgs = 0;
  double structural() const {
    return elect_msgs + aggregate_msgs + distribute_msgs + loop_msgs;
  }
  double msgs() const { return std::max(theorem_msgs, structural()); }
};

ByzEnvelope byz_envelope(const BudgetParams& p) {
  const Scales s(p);
  // Committee size: expectation p0 * n; cap at 4x + 16 (Chernoff w.h.p.).
  double c = p.committee_constant;
  if (c <= 0.0) {
    const double eps0 = 1.0 / 12.0;  // ByzParams default epsilon0
    c = 8.0 / ((1.0 - 3.0 * eps0) * eps0 * eps0);
  }
  const double p0 = std::min(1.0, c * s.logn / s.n);
  ByzEnvelope e;
  e.m_cap = std::min(s.n, 4.0 * p0 * s.n + 16.0);
  // Lemma 3.10: <= 4 f log N loop iterations; mirror the run cap's
  // generosity (f + 2 covers the f = 0 baseline traffic).
  e.iter_cap = 8.0 + 8.0 * (s.f + 2.0) * s.logN;
  // Theorem shape O(f logN log^3 n + n logn): E4 measures a ratio of ~93
  // against f logN log^3 n; constant 256 keeps ~3x headroom.
  e.theorem_msgs = 256.0 * (s.f + 1.0) * s.logN * s.logn * s.logn * s.logn +
                   16.0 * s.n * s.logn;
  e.elect_msgs = e.m_cap * s.n;
  e.aggregate_msgs = s.n * e.m_cap;
  e.distribute_msgs = 2.0 * e.m_cap * s.n;
  e.loop_msgs = e.iter_cap * e.m_cap * e.m_cap * (e.m_cap + 9.0);
  return e;
}

struct Auditor {
  const BudgetParams& p;
  const sim::RunStats& stats;
  const std::array<PhaseTotals, kPhaseCount>* phases;
  const std::vector<KindTotals>* kinds;
  BudgetReport report;

  double slack() const { return p.slack > 0.0 ? p.slack : 1.0; }

  void line(const std::string& quantity, double measured, double budget) {
    BudgetLine l;
    l.quantity = quantity;
    l.measured = measured;
    l.budget = budget * slack();
    l.ok = measured <= l.budget;
    report.lines.push_back(l);
  }

  /// Exact-equality line (double-entry checks): no slack applied.
  void exact(const std::string& quantity, double measured, double expected) {
    BudgetLine l;
    l.quantity = quantity;
    l.measured = measured;
    l.budget = expected;
    l.ok = measured == expected;
    report.lines.push_back(l);
  }

  void phase_line(PhaseId phase, double msg_budget) {
    if (phases == nullptr) return;
    const PhaseTotals& t = (*phases)[static_cast<std::size_t>(phase)];
    line(std::string("phase:") + phase_name(phase) + " messages",
         static_cast<double>(t.messages), msg_budget);
  }

  /// Wire-schema cross-check (honest-wire runs only): each fixed-layout
  /// kind's accumulated bits must equal messages * wire_bits(kind) — the
  /// runtime half of the schema contract, catching any call site that
  /// bypasses sim/wire_schema.h with a stale hand-written width. Variable
  /// kinds are skipped (their width rides the per-message payload count);
  /// kinds without a table row are skipped (bench-/test-local probes).
  void schema_check() {
    if (kinds == nullptr || !honest_wire(p)) return;
    const sim::wire::WireContext ctx = wire_ctx(p);
    for (const KindTotals& k : *kinds) {
      if (k.messages == 0) continue;
      const sim::wire::WireSchema* s = sim::wire::schema_of_or_null(k.kind);
      if (s == nullptr || s->variable) continue;
      exact(std::string("wire-schema:") + s->name + " bits",
            static_cast<double>(k.bits),
            static_cast<double>(k.messages) *
                static_cast<double>(sim::wire::wire_bits(s->kind, ctx)));
    }
  }

  /// Per-phase ledgers must reconcile exactly with the run totals: every
  /// message the engine accounts carries a kind, and every kind maps to
  /// exactly one phase (kUnattributed included).
  void double_entry() {
    if (phases == nullptr) return;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    for (const PhaseTotals& t : *phases) {
      messages += t.messages;
      bits += t.bits;
    }
    exact("phase-attribution messages", static_cast<double>(messages),
          static_cast<double>(stats.total_messages));
    exact("phase-attribution bits", static_cast<double>(bits),
          static_cast<double>(stats.total_bits));
  }

  // --- shared quantities --------------------------------------------------

  void totals(double msgs_budget, double rounds_budget, double maxbits_budget,
              double bits_budget) {
    line("messages", static_cast<double>(stats.total_messages), msgs_budget);
    line("rounds", static_cast<double>(stats.rounds), rounds_budget);
    line("max_message_bits", static_cast<double>(stats.max_message_bits),
         maxbits_budget);
    line("bits", static_cast<double>(stats.total_bits), bits_budget);
  }

  // --- crash algorithm (Theorem 1.2) --------------------------------------

  void crash() {
    const Scales s(p);
    const double logN = s.logN;
    // Rounds: exactly phase_multiplier * ceil(log2 n) phases of 3 subrounds
    // — the run_crash_renaming cap, an identity rather than an envelope.
    const double rounds =
        static_cast<double>(p.phase_multiplier) * ceil_log2(p.n) * 3.0;
    // Messages: Theorem 1.2's O((f + log n) n log n) w.h.p. (calibration
    // in crash_msgs_envelope).
    const double msgs = crash_msgs_envelope(p);
    // Wire format is exact: STATUS/RESPONSE are the widest crash kinds
    // (sim/wire_schema.h pins <id, lo, hi, depth, phase>).
    (void)logN;
    const double maxbits = sim::wire::wire_bits(Kind::kStatus, wire_ctx(p));
    totals(msgs, rounds, maxbits, msgs * maxbits);
    // Per-phase headroom against the run envelope (the split across
    // subrounds is an attack-dependent quantity the theorem does not pin).
    phase_line(PhaseId::kCommitteeAnnounce, msgs);
    phase_line(PhaseId::kStatusReport, msgs);
    phase_line(PhaseId::kCommitteeResponse, msgs);
  }

  // --- Byzantine algorithm (Theorem 1.3) -----------------------------------

  void byz(bool full_vector_ablation) {
    const Scales s(p);
    const double logN = s.logN;
    const double n = s.n;
    // Envelope pieces (committee cap, iteration cap, theorem vs structural
    // message shapes) are shared with message_envelope_terms.
    const ByzEnvelope e = byz_envelope(p);
    const double per_iter_rounds = 8.0 + 4.0 * (e.m_cap / 3.0 + 2.0);
    const double rounds = 4.0 + e.iter_cap * per_iter_rounds + 4.0;
    // Messages: the larger of the theorem shape and the structural
    // committee-loop bound (which dominates when the pool constant makes
    // the committee large).
    const double msgs = e.msgs();
    // O(log N)-bit messages: the VALIDATOR fingerprint layout is the
    // widest schema kind, with the ELECT control layout taking over at
    // astronomically large N; +8 keeps the historical envelope headroom.
    const sim::wire::WireContext wctx = wire_ctx(p);
    double maxbits =
        std::max<double>(sim::wire::wire_bits(Kind::kValidator, wctx),
                         sim::wire::wire_bits(Kind::kElect, wctx)) + 8.0;
    double bits = msgs * maxbits;
    if (full_vector_ablation) {
      // Ablation A2 ships Omega(n log N)-bit vectors on purpose.
      maxbits = (n + 1.0) * logN + 64.0;
      bits = msgs * maxbits;
    }
    totals(msgs, rounds, maxbits, bits);
    phase_line(PhaseId::kCommitteeElection, e.elect_msgs);
    phase_line(PhaseId::kIdentityAggregation, e.aggregate_msgs);
    if (full_vector_ablation) {
      phase_line(PhaseId::kFullVectorExchange, e.m_cap * e.m_cap + e.m_cap * n);
    } else {
      phase_line(PhaseId::kFingerprintValidation, e.loop_msgs);
      phase_line(PhaseId::kConsensus, e.loop_msgs);
      phase_line(PhaseId::kDiffExchange, e.loop_msgs);
    }
    phase_line(PhaseId::kDistribution, e.distribute_msgs);
  }

  // --- Table 1 baselines (quadratic envelopes) -----------------------------

  void baseline() {
    const double n = static_cast<double>(p.n);
    const double f = static_cast<double>(p.f);
    const double logn = static_cast<double>(protocol_log(p.n));
    const double logN =
        static_cast<double>(ceil_log2(std::max<std::uint64_t>(2, p.namespace_size)));
    double msgs = 0, rounds = 0, maxbits = 0, bits = 0;
    const sim::wire::WireContext wctx = wire_ctx(p);
    if (p.algorithm == "naive") {
      msgs = 2.0 * n * n;
      rounds = 3.0;
      maxbits = sim::wire::wire_bits(Kind::kNaiveId, wctx) + 16.0;
      bits = msgs * maxbits;
    } else if (p.algorithm == "cht") {
      // One all-to-all broadcast per halving phase, ceil(log2 n) + 2 phases.
      msgs = n * n * (ceil_log2(p.n) + 2.0);
      rounds = ceil_log2(p.n) + 2.0;
      maxbits = sim::wire::wire_bits(Kind::kChtStatus, wctx) + 16.0;
      bits = msgs * maxbits;
    } else if (p.algorithm == "obg") {
      msgs = 2.0 * n * n * (logn + 4.0);
      rounds = 4.0 * logn + 8.0;
      maxbits = (n + 1.0) * logN + 64.0;  // stable-vector messages
      bits = logN * n * n * (4.0 + (2.0 + logn) * n);  // Table 1 cubic form
    } else if (p.algorithm == "early") {
      msgs = 2.0 * (f + 2.0) * n * n;
      rounds = f + 3.0;
      maxbits = (n + 1.0) * logN + 64.0;  // Omega(n)-sized sets
      bits = msgs * maxbits;
    } else if (p.algorithm == "claiming") {
      msgs = 2.0 * n * n * (logn + 4.0);
      rounds = 4.0 * logn + 8.0;
      maxbits = sim::wire::wire_bits(Kind::kClaim, wctx) + 16.0;
      bits = msgs * maxbits;
    } else {
      RENAMING_CHECK(false, "audit_run: unknown baseline algorithm");
    }
    totals(msgs, rounds, maxbits, bits);
    phase_line(PhaseId::kBaselineExchange, msgs);
  }
};

}  // namespace

namespace {

BudgetReport audit_with_phases(
    const BudgetParams& params, const sim::RunStats& stats,
    const std::array<PhaseTotals, kPhaseCount>* phases,
    const std::vector<KindTotals>* kinds) {
  RENAMING_CHECK(params.n >= 1, "audit_run needs the system size");
  Auditor a{params, stats, phases, kinds, {}};
  a.report.algorithm = params.algorithm;
  if (params.algorithm == "crash") {
    a.crash();
  } else if (params.algorithm == "byz") {
    a.byz(/*full_vector_ablation=*/false);
  } else if (params.algorithm == "byz-full") {
    a.byz(/*full_vector_ablation=*/true);
  } else {
    a.baseline();
  }
  a.double_entry();
  a.schema_check();
  return a.report;
}

}  // namespace

BudgetReport audit_run(const BudgetParams& params, const sim::RunStats& stats,
                       const Telemetry* telemetry) {
  if (telemetry == nullptr) {
    return audit_with_phases(params, stats, nullptr, nullptr);
  }
  std::array<PhaseTotals, kPhaseCount> phases{};
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phases[i] = telemetry->phase(static_cast<PhaseId>(i));
  }
  std::vector<KindTotals> kinds;
  for (const sim::wire::WireSchema& row : sim::wire::kWireSchemas) {
    const sim::MsgKind k = sim::wire::raw(row.kind);
    if (telemetry->kind_messages(k) == 0) continue;
    kinds.push_back({k, telemetry->kind_messages(k), telemetry->kind_bits(k)});
  }
  return audit_with_phases(params, stats, &phases, &kinds);
}

BudgetReport audit_run(const BudgetParams& params, const sim::RunStats& stats,
                       const std::array<PhaseTotals, kPhaseCount>& phases,
                       const std::vector<KindTotals>* kinds) {
  return audit_with_phases(params, stats, &phases, kinds);
}

std::vector<EnvelopeTerm> message_envelope_terms(const BudgetParams& p) {
  RENAMING_CHECK(p.n >= 1, "message_envelope_terms needs the system size");
  const Scales s(p);
  std::vector<EnvelopeTerm> terms;
  if (p.algorithm == "crash") {
    terms.push_back({"24*(f + log n)*n*log n  [Thm 1.2]",
                     crash_msgs_envelope(p)});
  } else if (p.algorithm == "byz" || p.algorithm == "byz-full") {
    const ByzEnvelope e = byz_envelope(p);
    terms.push_back(
        {"256*(f+1)*logN*log^3 n + 16*n*log n  [Thm 1.3 shape]",
         e.theorem_msgs});
    terms.push_back({"m*n  [committee election]", e.elect_msgs});
    terms.push_back({"n*m  [identity aggregation]", e.aggregate_msgs});
    terms.push_back({"2*m*n  [distribution]", e.distribute_msgs});
    terms.push_back({"iters*m^2*(m+9)  [consensus loop]", e.loop_msgs});
  } else if (p.algorithm == "naive") {
    terms.push_back({"2*n^2  [Table 1: naive]", 2.0 * s.n * s.n});
  } else if (p.algorithm == "cht") {
    terms.push_back({"n^2*(ceil(log2 n)+2)  [Table 1: CHT halving]",
                     s.n * s.n * (ceil_log2(p.n) + 2.0)});
  } else if (p.algorithm == "obg") {
    terms.push_back({"2*n^2*(log n+4)  [Table 1: OBG]",
                     2.0 * s.n * s.n * (s.logn + 4.0)});
  } else if (p.algorithm == "early") {
    terms.push_back({"2*(f+2)*n^2  [Table 1: early-deciding]",
                     2.0 * (s.f + 2.0) * s.n * s.n});
  } else if (p.algorithm == "claiming") {
    terms.push_back({"2*n^2*(log n+4)  [Table 1: claiming]",
                     2.0 * s.n * s.n * (s.logn + 4.0)});
  }
  return terms;
}

std::string BudgetReport::summary() const {
  std::ostringstream out;
  out << "budget audit [" << algorithm << "]: " << (ok() ? "PASS" : "FAIL")
      << "\n";
  for (const BudgetLine& l : lines) {
    out << "  " << (l.ok ? "ok  " : "VIOLATION ") << l.quantity << ": measured "
        << l.measured << " vs budget " << l.budget << " (headroom "
        << l.headroom() * 100.0 << "%)\n";
  }
  return out.str();
}

}  // namespace renaming::obs
