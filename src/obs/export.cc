#include "obs/export.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "obs/json.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

namespace {

void write_histogram(std::ostream& out, const LogHistogram& h) {
  out << "{\"count\":" << h.count() << ",\"sum\":" << h.sum();
  if (h.count() > 0) {
    out << ",\"p50\":" << h.percentile(0.50) << ",\"p90\":" << h.percentile(0.90)
        << ",\"p99\":" << h.percentile(0.99);
  }
  out << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "[" << LogHistogram::bucket_lo(b) << "," << h.bucket(b) << "]";
  }
  out << "]}";
}

}  // namespace

void write_metrics_json(std::ostream& out, const Telemetry& telemetry,
                        const sim::RunStats& stats,
                        const BudgetReport* audit) {
  out << "{\"schema\":\"renaming-metrics-v1\"";
  out << ",\"algorithm\":\"" << json_escape(telemetry.algorithm()) << "\"";
  out << ",\"n\":" << telemetry.n() << ",\"f\":" << telemetry.f();

  out << ",\"totals\":{\"messages\":" << stats.total_messages
      << ",\"bits\":" << stats.total_bits << ",\"rounds\":" << stats.rounds
      << ",\"crashes\":" << stats.crashes
      << ",\"byzantine\":" << stats.byzantine
      << ",\"spoofs_rejected\":" << stats.spoofs_rejected
      << ",\"max_message_bits\":" << stats.max_message_bits
      << ",\"wall_us\":" << telemetry.run_wall_ns() / 1000 << "}";

  // Per-phase double-entry ledgers: messages/bits sum exactly to the run
  // totals (tests pin this); wall_us sums to the time spent inside
  // PhaseScope-instrumented callbacks.
  out << ",\"phases\":[";
  bool first = true;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseId id = static_cast<PhaseId>(i);
    const PhaseTotals& t = telemetry.phase(id);
    if (t.messages == 0 && t.bits == 0 && t.wall_ns == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"phase\":\"" << phase_name(id) << "\",\"messages\":" << t.messages
        << ",\"bits\":" << t.bits << ",\"wall_us\":" << t.wall_ns / 1000
        << "}";
  }
  out << "]";

  // Per-kind counts with canonical names (sim/wire_schema.h).
  out << ",\"kinds\":[";
  first = true;
  for (std::uint32_t k = 0; k < 65536; ++k) {
    const sim::MsgKind kind = static_cast<sim::MsgKind>(k);
    if (telemetry.kind_messages(kind) == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"kind\":" << k << ",\"name\":\""
        << json_escape(sim::message_name(kind)) << "\",\"phase\":\""
        << phase_name(telemetry.phase_of_kind(kind))
        << "\",\"messages\":" << telemetry.kind_messages(kind) << "}";
  }
  out << "]";

  const MetricsRegistry& reg = telemetry.registry();
  out << ",\"counters\":{";
  first = true;
  for (const auto& [name, c] : reg.counters()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"value\":" << g->value()
        << ",\"max\":" << g->max() << "}";
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":";
    write_histogram(out, *h);
  }
  out << "}";

  // Per-round series bookkeeping: the rings keep only the most recent
  // rounds once capped, and silence would read as "these are all the
  // rounds" — truncation must be explicit (docs/OBSERVABILITY.md §8).
  out << ",\"per_round\":{\"kept\":" << telemetry.per_round_wall_ns().size()
      << ",\"dropped\":" << telemetry.per_round_dropped()
      << ",\"truncated\":"
      << (telemetry.per_round_dropped() > 0 ? "true" : "false") << "}";

  if (audit != nullptr) {
    out << ",\"audit\":{\"ok\":" << (audit->ok() ? "true" : "false")
        << ",\"lines\":[";
    first = true;
    for (const BudgetLine& l : audit->lines) {
      if (!first) out << ",";
      first = false;
      out << "{\"quantity\":\"" << json_escape(l.quantity)
          << "\",\"measured\":" << l.measured << ",\"budget\":" << l.budget
          << ",\"ok\":" << (l.ok ? "true" : "false") << "}";
    }
    out << "]}";
  }
  out << "}\n";
}

void write_perfetto_trace(std::ostream& out, const Telemetry& telemetry,
                          const sim::RunStats& stats,
                          const ShardProfileData* shard_profile,
                          const ProvenanceData* provenance) {
  // Deterministic timeline: 1 round = 1000 trace microseconds. Perfetto
  // renders pid/tid tracks; we use pid 1 for nodes and pid 2 for the
  // per-round counter tracks.
  constexpr std::int64_t kRoundUs = 1000;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"renaming "
      << json_escape(telemetry.algorithm()) << " n=" << telemetry.n()
      << " f=" << telemetry.f() << "\"}}";
  out << ",{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"per-round counters\"}}";

  // Track names: every node that appears in a span, instant or label gets
  // a thread_name record ("node 7" / "node 7 [committee]").
  std::map<NodeIndex, std::string> tracks;
  for (const PhaseSpan& s : telemetry.spans()) tracks.emplace(s.node, "");
  for (const Instant& i : telemetry.instants()) tracks.emplace(i.node, "");
  if (provenance != nullptr) {
    for (const ProvEvent& e : provenance->events) tracks.emplace(e.node, "");
  }
  for (const auto& [node, label] : telemetry.node_labels()) {
    tracks[node] = label;
  }
  for (const auto& [node, label] : tracks) {
    out << ",{\"ph\":\"M\",\"pid\":1,\"tid\":" << node + 1
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node " << node;
    if (!label.empty()) out << " [" << json_escape(label) << "]";
    out << "\"}}";
  }

  // Phase spans as duration events, one per node per contiguous stretch.
  for (const PhaseSpan& s : telemetry.spans()) {
    const std::int64_t ts = static_cast<std::int64_t>(s.begin_round) * kRoundUs;
    const std::int64_t end = static_cast<std::int64_t>(s.end_round) * kRoundUs;
    out << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.node + 1 << ",\"cat\":\""
        << "phase\",\"name\":\"" << phase_name(s.phase) << "\",\"ts\":" << ts
        << ",\"dur\":" << (end > ts ? end - ts : kRoundUs) << "}";
  }

  // Crashes and spoof rejections as instant events mid-round.
  for (const Instant& i : telemetry.instants()) {
    const std::int64_t ts =
        static_cast<std::int64_t>(i.round) * kRoundUs + kRoundUs / 2;
    if (i.kind == Instant::Kind::kCrash) {
      out << ",{\"ph\":\"i\",\"pid\":1,\"tid\":" << i.node + 1
          << ",\"cat\":\"fault\",\"name\":\"crash\",\"ts\":" << ts
          << ",\"s\":\"g\"}";
    } else {
      out << ",{\"ph\":\"i\",\"pid\":1,\"tid\":" << i.node + 1
          << ",\"cat\":\"fault\",\"name\":\"spoof-rejected "
          << json_escape(sim::message_name(i.msg_kind)) << "\",\"ts\":" << ts
          << ",\"s\":\"t\"}";
    }
  }

  // Per-round counter tracks from the deterministic RunStats ledger.
  // Long executions are strided to keep the trace loadable.
  const std::size_t rounds = stats.per_round.size();
  const std::size_t stride = rounds > 20000 ? (rounds + 19999) / 20000 : 1;
  for (std::size_t r = 0; r < rounds; r += stride) {
    const std::int64_t ts = static_cast<std::int64_t>(r + 1) * kRoundUs;
    out << ",{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"messages\",\"ts\":"
        << ts << ",\"args\":{\"messages\":" << stats.per_round[r].messages
        << "}}";
    out << ",{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"bits\",\"ts\":" << ts
        << ",\"args\":{\"bits\":" << stats.per_round[r].bits << "}}";
    out << ",{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"crashes\",\"ts\":"
        << ts << ",\"args\":{\"crashes\":" << stats.per_round[r].crashes
        << "}}";
  }
  // The telemetry per-round rings may have evicted early rounds; entry i
  // belongs to round dropped + i + 1, so the tracks keep their true
  // timeline positions and the gap is visible (plus an explicit marker —
  // a silently shifted track would misattribute every sample).
  const std::uint64_t dropped = telemetry.per_round_dropped();
  if (dropped > 0) {
    out << ",{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"cat\":\"meta\","
           "\"name\":\"per-round ring truncated: first "
        << dropped << " rounds evicted\",\"ts\":" << kRoundUs
        << ",\"s\":\"g\"}";
  }
  // Active sender-set size per round (deterministic; tracks protocol
  // progress and crash attrition), same stride.
  const auto active = telemetry.per_round_active_senders();
  for (std::size_t r = 0; r < active.size(); r += stride) {
    const std::int64_t ts =
        static_cast<std::int64_t>(dropped + r + 1) * kRoundUs;
    out << ",{\"ph\":\"C\",\"pid\":2,\"tid\":0,"
           "\"name\":\"active_senders\",\"ts\":"
        << ts << ",\"args\":{\"nodes\":" << active[r] << "}}";
  }
  // Wall time per round (nondeterministic track), same stride.
  const auto wall = telemetry.per_round_wall_ns();
  for (std::size_t r = 0; r < wall.size(); r += stride) {
    const std::int64_t ts =
        static_cast<std::int64_t>(dropped + r + 1) * kRoundUs;
    out << ",{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"round_wall_ns\","
           "\"ts\":"
        << ts << ",\"args\":{\"ns\":" << wall[r] << "}}";
  }

  // Decision provenance (docs/OBSERVABILITY.md §9): every retained
  // decision as an instant on its node's track, and one flow arrow per
  // retained cause link — a cross-node "because" edge from the causing
  // event's track to the deciding node's. Strided like the counter tracks
  // so a watch-all run stays loadable.
  if (provenance != nullptr && !provenance->events.empty()) {
    const std::size_t ecount = provenance->events.size();
    const std::size_t estride =
        ecount > 20000 ? (ecount + 19999) / 20000 : 1;
    for (std::size_t i = 0; i < ecount; i += estride) {
      const ProvEvent& e = provenance->events[i];
      const std::int64_t ts =
          static_cast<std::int64_t>(e.round) * kRoundUs + kRoundUs / 2;
      out << ",{\"ph\":\"i\",\"pid\":1,\"tid\":" << e.node + 1
          << ",\"cat\":\"decision\",\"name\":\"" << prov_event_name(e.kind)
          << "\",\"ts\":" << ts << ",\"s\":\"t\"}";
      for (std::uint8_t c = 0; c < e.cause_count; ++c) {
        const ProvCause& cause = e.causes[c];
        if (cause.event == kNoProvEvent) continue;
        // Arrows only between retained endpoints: the start timestamp
        // comes from the causing event's record.
        const auto it = std::lower_bound(
            provenance->events.begin(), provenance->events.end(), cause.event,
            [](const ProvEvent& ev, std::uint64_t want) {
              return ev.id < want;
            });
        if (it == provenance->events.end() || it->id != cause.event) continue;
        const std::int64_t src_ts =
            static_cast<std::int64_t>(it->round) * kRoundUs + kRoundUs / 2;
        const std::uint64_t flow = e.id * kMaxProvCauses + c;
        out << ",{\"ph\":\"s\",\"pid\":1,\"tid\":" << it->node + 1
            << ",\"cat\":\"provenance\",\"name\":\""
            << json_escape(sim::message_name(cause.msg_kind))
            << "\",\"id\":" << flow << ",\"ts\":" << src_ts << "}";
        out << ",{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << e.node + 1
            << ",\"cat\":\"provenance\",\"name\":\""
            << json_escape(sim::message_name(cause.msg_kind))
            << "\",\"id\":" << flow << ",\"ts\":" << ts << "}";
      }
    }
  }

  // Per-shard profiler tracks (pid 3, nondeterministic): one busy and one
  // wait counter per parallel phase, with one series per shard, from the
  // profile's per-round sample ring. Lets a straggler shard show up as a
  // visibly taller series at the exact rounds it lagged.
  if (shard_profile != nullptr && shard_profile->shards > 0) {
    const ShardProfileData& sp = *shard_profile;
    out << ",{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"shard profiler (" << sp.shards
        << " shards)\"}}";
    if (sp.dropped_samples > 0) {
      out << ",{\"ph\":\"i\",\"pid\":3,\"tid\":0,\"cat\":\"meta\","
             "\"name\":\"shard-profile ring truncated: "
          << sp.dropped_samples << " rounds evicted\",\"ts\":" << kRoundUs
          << ",\"s\":\"g\"}";
    }
    const std::size_t sample_stride =
        sp.samples.size() > 20000 ? (sp.samples.size() + 19999) / 20000 : 1;
    for (std::size_t i = 0; i < sp.samples.size(); i += sample_stride) {
      const ShardRoundSample& s = sp.samples[i];
      const std::int64_t ts = static_cast<std::int64_t>(s.round) * kRoundUs;
      for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
        const ShardPhase phase = static_cast<ShardPhase>(p);
        if (!shard_phase_parallel(phase)) continue;
        for (const char* series : {"busy", "wait"}) {
          const auto& lane =
              series[0] == 'b' ? s.busy_ns : s.wait_ns;
          out << ",{\"ph\":\"C\",\"pid\":3,\"tid\":0,\"name\":\""
              << shard_phase_name(phase) << "_" << series
              << "_ns\",\"ts\":" << ts << ",\"args\":{";
          for (std::uint32_t k = 0; k < sp.shards; ++k) {
            const std::size_t slot = p * sp.shards + k;
            if (k != 0) out << ",";
            out << "\"shard" << k << "\":"
                << (slot < lane.size() ? lane[slot] : 0);
          }
          out << "}}";
        }
      }
      // Serial lanes as single-series counters on the same timeline.
      const std::size_t deliver_slot =
          static_cast<std::size_t>(ShardPhase::kDeliver) * sp.shards;
      const std::size_t merge_slot =
          static_cast<std::size_t>(ShardPhase::kMerge) * sp.shards;
      out << ",{\"ph\":\"C\",\"pid\":3,\"tid\":0,\"name\":\"deliver_ns\","
             "\"ts\":" << ts << ",\"args\":{\"ns\":"
          << (deliver_slot < s.busy_ns.size() ? s.busy_ns[deliver_slot] : 0)
          << "}}";
      out << ",{\"ph\":\"C\",\"pid\":3,\"tid\":0,\"name\":\"merge_ns\","
             "\"ts\":" << ts << ",\"args\":{\"ns\":"
          << (merge_slot < s.busy_ns.size() ? s.busy_ns[merge_slot] : 0)
          << "}}";
    }
  }
  out << "]}\n";
}

}  // namespace renaming::obs
