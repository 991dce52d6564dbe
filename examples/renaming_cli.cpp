// renaming_cli: run any algorithm in the library against any adversary from
// the command line, with human-readable or CSV output — the "downstream
// user" entry point for scripting custom experiments.
//
//   renaming_cli crash     --n 512 --seed 1 --constant 2
//                          --adversary hunter --budget 64 [--early-stop]
//                          (adversaries: hunter, midresponse, random,
//                          chaos, splitter)
//   renaming_cli byz       --n 256 --seed 1 --pool 3 --f 8 --strategy split
//                          (strategies: split, lying, spoof, silent, prefix,
//                          double)
//   renaming_cli cht       --n 256 --budget 32
//   renaming_cli claiming  --n 256 --budget 32
//   renaming_cli early     --n 128 --budget 16
//   renaming_cli obg       --n 128 --f 16
//   renaming_cli naive     --n 128
//   renaming_cli lowerbound --n 256 --budget 128 --trials 2000
//
// Common flags: --seed S, --csv, --trace FILE (JSONL event trace; crash and
// byz only, a usage error elsewhere), --threads T (shard-parallel engine
// callbacks on T threads, 0 = all cores; results byte-identical to
// --threads 1), --shards K (override the shard count, default one per
// thread).
//   --trace-cap M        forward at most M per-copy trace events, then
//                        count drops (default at every n: 1000000;
//                        0 = unbounded). A capped trace is not
//                        byte-comparable to golden pins.
//
// Million-node mode (docs/PERFORMANCE.md §10). A run with n >= 8192 nodes
// (kLargeSystemNodes) counts as large and gets bounded defaults:
//   --closed-form C      baselines (cht/obg) switch to exact closed-form
//                        accounting at n >= C when failure-free and
//                        journal-less (default: 8192; 0 = always simulate).
//   --journal-rounds K   keep only the last K journal round records
//                        (flight-recorder ring; run totals still cover the
//                        whole run). Default for large runs: 64;
//                        0 = unbounded.
// The effective observer configuration (trace/journal bounding, attached
// observers) is printed as a run header — to stderr under --csv so parsers
// stay happy.
//
// Observability flags (all algorithms except lowerbound):
//   --metrics-out FILE   phase-attributed metrics JSON (renaming-metrics-v1)
//   --perfetto-out FILE  Chrome trace-event JSON; open at ui.perfetto.dev
//   --journal-out FILE   deterministic flight-recorder journal (binary,
//                        renaming-journal-v1); feed to renaming_doctor
//   --journal-jsonl FILE same journal as line-delimited JSON
//   --audit [--slack X]  check the run against its theory budget
//                        (Theorem 1.2/1.3 or Table 1); non-zero exit on a
//                        violation, envelopes scaled by X (default 1)
//
// Decision provenance (docs/OBSERVABILITY.md §9):
//   --provenance-out FILE    causal decision-event graph (binary, RNPV v1);
//                        feed to renaming_doctor why / blame
//   --provenance-jsonl FILE  same graph as line-delimited JSON
//   --trace-nodes v1,v2,..   watch-set: retain only decision events at the
//                        listed nodes plus their transitive causes
//   --trace-sample K         watch ~K evenly-strided nodes instead (also
//                        samples the --trace JSONL, as before)
//   --provenance-horizon H   cause-retention ring: causes further than H
//                        events back degrade to "(evicted)" in doctor why
//                        (default for large runs: 1000000; 0 = unbounded).
//                        With neither watch flag a large run watches a
//                        stride sample of 64 nodes (--trace-sample 64;
//                        --trace-sample 0 watches every node), a smaller
//                        one every node.
//                        The exported bytes are identical across --threads.
//
// Live observability (docs/OBSERVABILITY.md §8):
//   --progress-out FILE  stream a heartbeat (renaming-progress-v1 JSONL):
//                        round, cumulative events, active set, outbox
//                        occupancy, wall time, events/s, peak RSS
//   --progress-interval R      sample every R-th round (default 1);
//                        round cadence keeps the sampled set deterministic
//   --progress-interval-ms M   sample on wall time instead (>= M ms apart);
//                        bounded output, nondeterministic record selection
//   --shard-profile-out FILE   per-shard, per-phase timing (binary,
//                        renaming-shard-profile-v1); render with
//                        renaming_doctor profile. Combined with
//                        --perfetto-out the trace gains per-shard busy /
//                        barrier-wait tracks (pid 3).
//   --telemetry-rounds K keep only the last K per-round telemetry samples
//                        (default for large runs: 4096; unbounded
//                        otherwise). K must be a positive integer — an
//                        explicit 0 or a negative value is a usage error,
//                        as for the --progress-interval* cadences.
// Exit code 0 iff the verifier accepted the outcome (and, with --audit,
// the budget auditor did too); 2 on a usage error (including a numeric
// flag whose value is not a number, named on stderr, an unknown
// --adversary even when --budget is 0, and byz/obg with --f >= --n) or
// when an output file cannot be written (the failed path is named on
// stderr).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cht_crash.h"
#include "baselines/claiming.h"
#include "baselines/early_deciding.h"
#include "baselines/naive.h"
#include "baselines/obg_byzantine.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "core/system.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "lowerbound/anonymous.h"
#include "obs/budget.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/observers.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"
#include "sim/trace.h"

namespace {

using namespace renaming;

// Parses the whole of `text` as a T; an empty string, trailing bytes, a
// sign on an unsigned T or an out-of-range value make it fail.
template <typename T>
bool parse_whole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::uint64_t num(const std::string& key, std::uint64_t fallback) const {
    return parsed(key, fallback, "a non-negative integer");
  }
  double real(const std::string& key, double fallback) const {
    return parsed(key, fallback, "a number");
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

 private:
  // A malformed numeric value is a usage error: exit 2, naming the flag.
  template <typename T>
  T parsed(const std::string& key, T fallback, const char* what) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    T value{};
    if (!parse_whole(it->second, &value)) {
      std::fprintf(stderr, "renaming_cli: --%s must be %s, got '%s'\n",
                   key.c_str(), what, it->second.c_str());
      std::exit(2);
    }
    return value;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[key] = argv[++i];
    } else {
      args.flags[key] = "1";  // boolean flag
    }
  }
  return args;
}

void report(const Args& args, const std::string& algo,
            const sim::RunStats& stats, const VerifyReport& verdict,
            NodeIndex n, std::uint64_t f) {
  if (args.has("csv")) {
    std::printf("algo,n,f,rounds,messages,bits,max_msg_bits,spoofs,"
                "strong,order\n");
    std::printf("%s,%u,%llu,%u,%llu,%llu,%u,%llu,%d,%d\n", algo.c_str(), n,
                static_cast<unsigned long long>(f), stats.rounds,
                static_cast<unsigned long long>(stats.total_messages),
                static_cast<unsigned long long>(stats.total_bits),
                stats.max_message_bits,
                static_cast<unsigned long long>(stats.spoofs_rejected),
                verdict.ok() ? 1 : 0, verdict.order_preserving ? 1 : 0);
  } else {
    std::printf("%s  n=%u f=%llu\n", algo.c_str(), n,
                static_cast<unsigned long long>(f));
    std::printf("  rounds        %u\n", stats.rounds);
    std::printf("  messages      %llu\n",
                static_cast<unsigned long long>(stats.total_messages));
    std::printf("  bits          %llu (max %u bits/message)\n",
                static_cast<unsigned long long>(stats.total_bits),
                stats.max_message_bits);
    if (stats.spoofs_rejected > 0) {
      std::printf("  spoofs        %llu rejected\n",
                  static_cast<unsigned long long>(stats.spoofs_rejected));
    }
    std::printf("  verdict       %s%s\n",
                verdict.ok() ? "correct" : "VIOLATION",
                verdict.order_preserving ? " (order-preserving)" : "");
    if (!verdict.ok()) {
      for (const std::string& v : verdict.violations) {
        std::printf("  !! %s\n", v.c_str());
      }
    }
  }
}

// Flushes an output stream. False, naming `path` on stderr, when the file
// never opened or a write failed: a lost artifact is an error, not a skip.
bool stream_ok(std::ofstream& out, const std::string& path) {
  out.flush();
  if (out) return true;
  std::fprintf(stderr, "renaming_cli: cannot write %s\n", path.c_str());
  return false;
}

// Writes the artifact for flag `key` when it was given.
template <typename Write>
bool write_artifact(const Args& args, const char* key, Write write) {
  if (!args.has(key)) return true;
  const std::string path = args.str(key, "");
  std::ofstream out(path, std::ios::binary);
  if (out) write(out);
  return stream_ok(out, path);
}

// Handles --journal-out / --journal-jsonl / --provenance-out /
// --provenance-jsonl / --shard-profile-out / --metrics-out /
// --perfetto-out / --audit for one finished run. Returns 0, 1 when --audit
// was requested and the run blew its budget, or 2 when an artifact could
// not be written.
int finish_observability(const Args& args, const obs::Telemetry* telemetry,
                         const obs::Journal* journal,
                         const obs::ShardProfile* profile,
                         const obs::Provenance* provenance,
                         const sim::RunStats& stats, const std::string& algo,
                         const SystemConfig& cfg, std::uint64_t f,
                         double committee_constant,
                         std::uint32_t phase_multiplier) {
  bool written = true;
  if (journal != nullptr) {
    written &= write_artifact(args, "journal-out", [&](std::ostream& out) {
      obs::write_journal_binary(out, journal->data());
    });
    written &= write_artifact(args, "journal-jsonl", [&](std::ostream& out) {
      obs::write_journal_jsonl(out, journal->data());
    });
  }
  obs::ProvenanceData pdata;
  if (provenance != nullptr) {
    pdata = provenance->data();
    written &= write_artifact(args, "provenance-out", [&](std::ostream& out) {
      obs::write_provenance_binary(out, pdata);
    });
    written &= write_artifact(args, "provenance-jsonl",
                              [&](std::ostream& out) {
                                obs::write_provenance_jsonl(out, pdata);
                              });
  }
  if (profile != nullptr) {
    written &= write_artifact(args, "shard-profile-out",
                              [&](std::ostream& out) {
                                obs::write_shard_profile_binary(
                                    out, profile->data());
                              });
  }
  if (telemetry == nullptr) return written ? 0 : 2;
  obs::BudgetReport audit;
  bool audited = false;
  if (args.has("audit")) {
    obs::BudgetParams p;
    p.algorithm = algo;
    p.n = cfg.n;
    p.f = f;
    p.namespace_size = cfg.namespace_size;
    p.committee_constant = committee_constant;
    p.phase_multiplier = phase_multiplier;
    p.slack = args.real("slack", 1.0);
    audit = obs::audit_run(p, stats, telemetry);
    audited = true;
    if (!args.has("csv") || !audit.ok()) {
      std::printf("%s", audit.summary().c_str());
    }
  }
  written &= write_artifact(args, "metrics-out", [&](std::ostream& out) {
    obs::write_metrics_json(out, *telemetry, stats,
                            audited ? &audit : nullptr);
  });
  written &= write_artifact(args, "perfetto-out", [&](std::ostream& out) {
    obs::write_perfetto_trace(out, *telemetry, stats,
                              profile != nullptr ? &profile->data() : nullptr,
                              provenance != nullptr ? &pdata : nullptr);
  });
  if (!written) return 2;
  return audited && !audit.ok() ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: renaming_cli crash|byz|cht|early|claiming|obg|naive|lowerbound "
               "[--n N] [--seed S] [--csv] ...\n"
               "see the header of examples/renaming_cli.cpp for all flags\n");
  return 2;
}

// True iff `key`, when given, carries a positive integer. A zero cadence or
// capacity is meaningless, and a negative value is not a count — both must
// die as usage errors, not as a division by zero three layers down.
bool positive_flag_ok(const Args& args, const std::string& key) {
  const auto it = args.flags.find(key);
  std::uint64_t value = 0;
  return it == args.flags.end() ||
         (parse_whole(it->second, &value) && value > 0);
}

// Parses --trace-nodes v1,v2,.. into a watch list; out-of-range entries
// are reported by the caller via the false return.
bool parse_watch_nodes(const std::string& csv, NodeIndex n,
                       std::vector<NodeIndex>* out) {
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? csv.size() : comma + 1;
    if (tok.empty()) continue;
    std::uint64_t v = 0;
    if (!parse_whole(tok, &v) || v >= n) return false;
    out->push_back(static_cast<NodeIndex>(v));
  }
  return true;
}

// The name → factory tables of crash --adversary and byz --strategy: each
// serves both parsing and its usage message.
using AdversaryPtr = std::unique_ptr<sim::CrashAdversary>;
struct Adversary {
  const char* name;
  AdversaryPtr (*make)(std::uint64_t budget, NodeIndex n, std::uint64_t seed);
};

// The per-round, per-node crash probability that spreads `budget` random
// crashes over a whole crash run (budget / (n * its round cap)), so victims
// fall in every phase, mid-send too, instead of all in round 1.
double spread_over_run(std::uint64_t budget, NodeIndex n) {
  return static_cast<double>(budget) /
         (static_cast<double>(n) * crash::CrashParams{}.max_rounds(n));
}

constexpr Adversary kAdversaries[] = {
    {"hunter",
     [](std::uint64_t budget, NodeIndex, std::uint64_t seed) -> AdversaryPtr {
       return std::make_unique<crash::CommitteeHunter>(
           budget, crash::CommitteeHunter::Mode::kAtAnnounce, seed * 7);
     }},
    {"midresponse",
     [](std::uint64_t budget, NodeIndex, std::uint64_t seed) -> AdversaryPtr {
       return std::make_unique<crash::CommitteeHunter>(
           budget, crash::CommitteeHunter::Mode::kMidResponse, seed * 7, 0.5);
     }},
    {"random",
     [](std::uint64_t budget, NodeIndex n, std::uint64_t seed) -> AdversaryPtr {
       return std::make_unique<sim::RandomCrashAdversary>(
           budget, spread_over_run(budget, n), seed * 7);
     }},
    {"chaos",
     [](std::uint64_t budget, NodeIndex n, std::uint64_t seed) -> AdversaryPtr {
       return std::make_unique<sim::ChaosCrashAdversary>(
           budget, spread_over_run(budget, n), seed * 7);
     }},
    {"splitter",
     [](std::uint64_t budget, NodeIndex, std::uint64_t seed) -> AdversaryPtr {
       return std::make_unique<crash::StatusSplitter>(budget, 0.1, seed * 7);
     }},
};

struct Strategy {
  const char* name;
  byzantine::ByzStrategyFactory make;
};
constexpr Strategy kStrategies[] = {
    {"split", &byzantine::SplitReporter::make},
    {"lying", &byzantine::LyingMember::make},
    {"spoof", &byzantine::Spoofer::make},
    {"silent",
     [](NodeIndex, const SystemConfig&, const Directory&,
        const byzantine::ByzParams&) -> std::unique_ptr<sim::Node> {
       return std::make_unique<byzantine::SilentNode>();
     }},
    {"prefix", &byzantine::PrefixReporter::make},
    {"double", &byzantine::DoubleDealer::make},
};

// The entry of `table` named `name`; nullptr for an unknown one.
template <typename Entry, std::size_t N>
const Entry* find_named(const Entry (&table)[N], const std::string& name) {
  for (const Entry& e : table) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

// Rejects a flag value that names no entry of `table`, listing the names.
template <typename Entry, std::size_t N>
bool named_ok(const Entry (&table)[N], const char* flag,
              const std::string& name) {
  if (find_named(table, name) != nullptr) return true;
  std::string names;
  for (const Entry& e : table) {
    names += names.empty() ? "" : ", ";
    names += e.name;
  }
  std::fprintf(stderr, "--%s must be one of %s\n", flag, names.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // The CLI offers --trace for the two paper protocols only, although the
  // baselines accept a trace through the same observer bundle.
  if (args.has("trace") && args.command != "crash" && args.command != "byz") {
    std::fprintf(stderr, "--trace is supported by crash and byz only\n");
    return usage();
  }
  for (const char* key :
       {"progress-interval", "progress-interval-ms", "telemetry-rounds"}) {
    if (!positive_flag_ok(args, key)) {
      std::fprintf(stderr, "--%s must be a positive integer\n", key);
      return usage();
    }
  }
  const std::uint64_t n_raw = args.num("n", 128);
  // Validate before the narrowing below: NodeIndex is 32-bit and the
  // engine's setup allocates per-node flags, so an absurd or wrapped --n
  // must die here, not as a bad_alloc three layers down.
  constexpr std::uint64_t kMaxNodes = 1ull << 24;  // 16M, ~16x the BENCH max
  if (n_raw == 0 || n_raw > kMaxNodes) {
    std::fprintf(stderr, "--n must be in [1, %llu]\n",
                 static_cast<unsigned long long>(kMaxNodes));
    return usage();
  }
  const NodeIndex n = static_cast<NodeIndex>(n_raw);
  // Checked before any artifact file is opened. byz and obg spread the f
  // faulty nodes over [1, n).
  if ((args.command == "byz" || args.command == "obg") &&
      args.num("f", 0) >= n) {
    std::fprintf(stderr, "--f must be below --n\n");
    return usage();
  }
  if ((args.command == "crash" &&
       !named_ok(kAdversaries, "adversary",
                 args.str("adversary", "hunter"))) ||
      (args.command == "byz" &&
       !named_ok(kStrategies, "strategy", args.str("strategy", "split")))) {
    return usage();
  }
  const std::uint64_t seed = args.num("seed", 1);
  const std::uint64_t N = args.num("namespace", 5ull * n * n);
  const auto cfg = SystemConfig::random(n, N, seed);

  // Memory-bounded observability defaults: a per-copy trace grows with
  // messages times rounds at any n (byz at n = 2048 with 24 split
  // reporters traces ~7 GB), so it always caps unless explicitly unbounded
  // (0); for a large run a per-round journal would itself be O(n^2)-ish,
  // so it rings.
  const bool big = n >= kLargeSystemNodes;
  const std::uint64_t trace_cap = args.num("trace-cap", 1000000);
  const std::uint64_t journal_rounds = args.num("journal-rounds", big ? 64 : 0);
  // Watching every node's decisions records O(n) events per round; a large
  // run watches a 64-node stride sample unless --trace-sample says
  // otherwise (0 = every node).
  const std::uint64_t provenance_sample =
      args.num("trace-sample", big ? 64 : 0);

  std::ofstream trace_file;
  std::unique_ptr<sim::JsonlTrace> trace;
  std::unique_ptr<sim::CappedTrace> capped;
  sim::TraceSink* trace_sink = nullptr;
  if (args.has("trace")) {
    trace_file.open(args.str("trace", "trace.jsonl"));
    if (!stream_ok(trace_file, args.str("trace", "trace.jsonl"))) return 2;
    trace = std::make_unique<sim::JsonlTrace>(trace_file,
                                              args.num("trace-sample", 1));
    trace_sink = trace.get();
    if (trace_cap > 0) {
      capped = std::make_unique<sim::CappedTrace>(*trace, trace_cap);
      trace_sink = capped.get();
    }
  }

  const std::uint64_t telemetry_rounds =
      args.num("telemetry-rounds", big ? 4096 : 0);

  std::unique_ptr<obs::Telemetry> telemetry;
  if (args.has("metrics-out") || args.has("perfetto-out") ||
      args.has("audit")) {
    telemetry = std::make_unique<obs::Telemetry>();
    telemetry->set_per_round_capacity(
        static_cast<std::size_t>(telemetry_rounds));
  }
  std::unique_ptr<obs::Journal> journal;
  if (args.has("journal-out") || args.has("journal-jsonl")) {
    journal = std::make_unique<obs::Journal>(
        static_cast<std::size_t>(journal_rounds));
  }

  // Causal decision recorder (docs/OBSERVABILITY.md §9). Activated only by
  // the export flags; --trace-nodes / --trace-sample bound its memory to a
  // watch-set, --provenance-horizon bounds the cause-retention ring.
  std::unique_ptr<obs::Provenance> provenance;
  if (args.has("provenance-out") || args.has("provenance-jsonl")) {
    obs::ProvenanceOptions popts;
    if (args.has("trace-nodes") &&
        !parse_watch_nodes(args.str("trace-nodes", ""), n,
                           &popts.watch_nodes)) {
      std::fprintf(stderr, "--trace-nodes must be node indices below n\n");
      return usage();
    }
    if (!args.has("trace-nodes")) {
      popts.sample = static_cast<NodeIndex>(provenance_sample);
    }
    popts.horizon = args.num("provenance-horizon", big ? 1000000 : 0);
    provenance = std::make_unique<obs::Provenance>(std::move(popts));
  }

  // Live heartbeat: samples stream to the file as the run executes, so a
  // long run is observable from a `tail -f` without touching its output.
  std::ofstream progress_file;
  std::unique_ptr<obs::Progress> progress;
  if (args.has("progress-out")) {
    obs::Progress::Options popts;
    popts.every_rounds =
        static_cast<std::uint32_t>(args.num("progress-interval", 1));
    if (popts.every_rounds == 0) popts.every_rounds = 1;
    popts.min_interval_ns = static_cast<std::int64_t>(
        args.num("progress-interval-ms", 0) * 1000000ull);
    progress = std::make_unique<obs::Progress>(popts);
    progress_file.open(args.str("progress-out", "progress.jsonl"));
    if (!stream_ok(progress_file, args.str("progress-out", "progress.jsonl"))) {
      return 2;
    }
    progress->set_sink(&progress_file);
  }

  // Shard profiler: attached via the shard plan below; purely
  // observational, like every observer.
  std::unique_ptr<obs::ShardProfile> profile;
  if (args.has("shard-profile-out")) {
    profile = std::make_unique<obs::ShardProfile>();
  }

  // Effective-configuration run header, one entry per attached observer
  // (none: no header). Under --csv it goes to stderr so stdout stays
  // machine-parseable.
  {
    std::string header;
    const auto add = [&](const std::string& part) {
      header += header.empty() ? part : ", " + part;
    };
    if (trace_sink != nullptr && trace_cap > 0) {
      add("trace capped(" + std::to_string(trace_cap) + ")");
    } else if (trace_sink != nullptr) {
      add("trace full");
    }
    if (journal != nullptr && journal_rounds > 0) {
      add("journal ring(" + std::to_string(journal_rounds) + ")");
    } else if (journal != nullptr) {
      add("journal full");
    }
    if (telemetry != nullptr && telemetry_rounds > 0) {
      add("telemetry ring(" + std::to_string(telemetry_rounds) + ")");
    }
    if (progress != nullptr) add("heartbeat");
    if (profile != nullptr) add("shard profile");
    if (provenance != nullptr && args.has("trace-nodes")) {
      add("provenance watch(list)");
    } else if (provenance != nullptr && provenance_sample > 0) {
      add("provenance watch(sample " + std::to_string(provenance_sample) +
          ")");
    } else if (provenance != nullptr) {
      add("provenance full");
    }
    if (!header.empty()) {
      std::fprintf(args.has("csv") ? stderr : stdout, "%s\n", header.c_str());
    }
  }

  // --threads T > 1 (0 = all cores) runs the engine's send/receive
  // callbacks shard-parallel on a persistent pool; output stays
  // byte-identical, whatever observers are attached.
  // Both flags are bounded before the unsigned narrowing below: a huge
  // value would otherwise spawn that many threads / size per-run scratch
  // by that many shards.
  const std::uint64_t threads_raw = args.num("threads", 1);
  const std::uint64_t shards_raw = args.num("shards", 0);
  constexpr std::uint64_t kMaxParallelism = 4096;
  if (threads_raw > kMaxParallelism || shards_raw > kMaxParallelism) {
    std::fprintf(stderr,
                 "--threads/--shards must be in [0, %llu]\n",
                 static_cast<unsigned long long>(kMaxParallelism));
    return usage();
  }
  const auto threads = static_cast<unsigned>(threads_raw);
  std::unique_ptr<sim::parallel::WorkerPool> pool;
  sim::parallel::ShardPlan plan;
  if (threads != 1 || args.has("shards")) {
    pool = std::make_unique<sim::parallel::WorkerPool>(threads);
    plan.pool = pool.get();
    plan.shards = static_cast<unsigned>(shards_raw);
  }
  plan.profile = profile.get();
  const sim::Observers observers{.trace = trace_sink,
                                 .telemetry = telemetry.get(),
                                 .journal = journal.get(),
                                 .progress = progress.get(),
                                 .provenance = provenance.get(),
                                 .plan = plan};

  // Every run command ends here: write the end-of-run artifacts, check the
  // streams that were live during the run, and fold the verdict (1), the
  // audit (1) and any output failure (2) into the exit code.
  const auto finish = [&](bool correct, const sim::RunStats& stats,
                          const std::string& algo, std::uint64_t f,
                          double committee_constant = 0.0,
                          std::uint32_t phase_multiplier = 3) {
    int rc = finish_observability(args, telemetry.get(), journal.get(),
                                  profile.get(), provenance.get(), stats, algo,
                                  cfg, f, committee_constant,
                                  phase_multiplier);
    if ((trace_sink != nullptr &&
         !stream_ok(trace_file, args.str("trace", "trace.jsonl"))) ||
        (progress != nullptr &&
         !stream_ok(progress_file,
                    args.str("progress-out", "progress.jsonl")))) {
      rc = 2;
    }
    return std::max(rc, correct ? 0 : 1);
  };

  if (args.command == "crash") {
    crash::CrashParams params;
    params.election_constant = args.real("constant", 2.0);
    params.early_stopping = args.has("early-stop");
    params.adaptive_reelection = !args.has("no-doubling");
    const std::uint64_t budget = args.num("budget", 0);
    std::unique_ptr<sim::CrashAdversary> adversary;
    if (budget > 0) {
      adversary = find_named(kAdversaries,
                             args.str("adversary", "hunter"))
                      ->make(budget, n, seed);
    }
    const auto r = crash::run_crash_renaming(cfg, params, std::move(adversary),
                                             observers);
    report(args, "crash", r.stats, r.report, n, r.stats.crashes);
    if (capped != nullptr && capped->dropped() > 0 && !args.has("csv")) {
      std::printf("  trace         dropped %llu events past the cap\n",
                  static_cast<unsigned long long>(capped->dropped()));
    }
    return finish(r.report.ok(), r.stats, "crash", budget,
                  params.election_constant, params.phase_multiplier);
  }

  if (args.command == "byz") {
    byzantine::ByzParams params;
    params.pool_constant = args.real("pool", 3.0);
    params.shared_seed = args.num("beacon", seed);
    params.use_fingerprints = !args.has("full-vectors");
    const auto f = static_cast<NodeIndex>(args.num("f", 0));
    const std::vector<NodeIndex> byz = spread_faulty(n, f);
    const byzantine::ByzStrategyFactory factory =
        find_named(kStrategies, args.str("strategy", "split"))->make;
    const auto r =
        byzantine::run_byz_renaming(cfg, params, byz, factory, 0, observers);
    report(args, "byz", r.stats, r.report, n, byz.size());
    if (!args.has("csv")) {
      std::printf("  loop iters    %u\n", r.loop_iterations);
      if (capped != nullptr && capped->dropped() > 0) {
        std::printf("  trace         dropped %llu events past the cap\n",
                    static_cast<unsigned long long>(capped->dropped()));
      }
    }
    return finish(r.report.ok(true), r.stats,
                  params.use_fingerprints ? "byz" : "byz-full", byz.size(),
                  params.pool_constant);
  }

  if (args.command == "cht" || args.command == "early" ||
      args.command == "naive" || args.command == "claiming") {
    const std::uint64_t budget = args.num("budget", 0);
    std::unique_ptr<sim::CrashAdversary> adversary;
    if (budget > 0) {
      adversary =
          std::make_unique<sim::ChaosCrashAdversary>(budget, 0.15, seed * 7);
    }
    if (args.command == "cht") {
      const auto cutoff = static_cast<NodeIndex>(
          args.num("closed-form", kLargeSystemNodes));
      const auto r = baselines::run_cht_renaming(cfg, std::move(adversary),
                                                 cutoff, observers);
      report(args, "cht", r.stats, r.report, n, r.stats.crashes);
      if (r.closed_form && !args.has("csv")) {
        std::printf("  accounting    closed-form (failure-free, n >= %u)\n",
                    cutoff);
      }
      return finish(r.report.ok(), r.stats, "cht", budget);
    }
    if (args.command == "claiming") {
      const auto r = baselines::run_claiming_renaming(
          cfg, std::move(adversary), observers);
      report(args, "claiming", r.stats, r.report, n, r.stats.crashes);
      return finish(r.report.ok(), r.stats, "claiming", budget);
    }
    if (args.command == "early") {
      const auto r = baselines::run_early_deciding_renaming(
          cfg, std::move(adversary), observers);
      report(args, "early", r.stats, r.report, n, r.stats.crashes);
      if (!args.has("csv")) {
        std::printf("  decided by    round %u\n", r.max_decision_round);
      }
      return finish(r.report.ok(), r.stats, "early", budget);
    }
    const auto r =
        baselines::run_naive_renaming(cfg, std::move(adversary), observers);
    report(args, "naive", r.stats, r.report, n, r.stats.crashes);
    return finish(r.report.ok(), r.stats, "naive", budget);
  }

  if (args.command == "obg") {
    const auto f = static_cast<NodeIndex>(args.num("f", 0));
    const auto cutoff = static_cast<NodeIndex>(
        args.num("closed-form", kLargeSystemNodes));
    const auto r = baselines::run_obg_renaming(
        cfg, spread_faulty(n, f), baselines::ObgByzBehaviour::kSplitAnnounce,
        cutoff, observers);
    report(args, "obg", r.stats, r.report, n, f);
    if (r.closed_form && !args.has("csv")) {
      std::printf("  accounting    closed-form (failure-free, n >= %u)\n",
                  cutoff);
    }
    return finish(r.report.ok(), r.stats, "obg", f);
  }

  if (args.command == "lowerbound") {
    const auto r = lowerbound::run_anonymous_experiment(
        n, args.num("budget", n / 2), args.num("trials", 1000), seed);
    if (args.has("csv")) {
      std::printf("n,budget,trials,success_rate,expected_collisions\n");
      std::printf("%u,%llu,%llu,%.4f,%.2f\n", n,
                  static_cast<unsigned long long>(args.num("budget", n / 2)),
                  static_cast<unsigned long long>(r.trials), r.success_rate,
                  r.expected_collisions);
    } else {
      std::printf("anonymous renaming  n=%u budget=%llu trials=%llu\n", n,
                  static_cast<unsigned long long>(args.num("budget", n / 2)),
                  static_cast<unsigned long long>(r.trials));
      std::printf("  success rate  %.4f (>= 3/4: %s)\n", r.success_rate,
                  r.success_rate >= 0.75 ? "yes" : "no");
      std::printf("  E[collisions] %.2f\n", r.expected_collisions);
    }
    return 0;
  }

  return usage();
}
