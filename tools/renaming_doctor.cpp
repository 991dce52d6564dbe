// renaming_doctor: diagnose flight-recorder journals (docs/OBSERVABILITY.md
// §7). The doctor CLI is the terminal-output owner for journal diagnosis;
// all logic lives in src/obs/doctor.{h,cc}, which never prints.
//
//   renaming_doctor diff A.bin B.bin
//       Bisect two journals to the first divergent round and explain the
//       per-kind / per-node delta at that round.
//   renaming_doctor explain J.bin [--slack X] [--constant C]
//                                 [--phase-multiplier M] [--namespace N]
//       Audit the journalled run against its theory budget (algorithm, n
//       and f are read from the journal header) and, on failure, rank
//       phases by envelope overshoot and name the dominating theorem term.
//   renaming_doctor show J.bin [--rounds]
//       Print the journal header (and per-round records with --rounds).
//   renaming_doctor profile P.rnsp
//       Render a shard-utilization and straggler report from a shard
//       profile written by renaming_cli --shard-profile-out or
//       bench_engine: per-phase busy/barrier-wait totals, utilization
//       bars per shard, imbalance ratio and barrier-wait share.
//   renaming_doctor why P.rnpv --node V
//       Render node V's causal decision chain from a provenance recording
//       written by renaming_cli --provenance-out: every retained decision
//       event with its triggering deliveries and per-hop wire-bit cost
//       (docs/OBSERVABILITY.md §9).
//   renaming_doctor blame P.rnpv
//       Rank the run's faulty nodes (marked Byzantine / crashed / spoof
//       sources) by the wire bits their deliveries fed into honest
//       decisions.
//
// Exit codes: 0 = identical / audit pass / chain found, 1 = diverged /
// budget violation / node has no retained events, 2 = usage or I/O error,
// a file its reader rejects, or a journal explain cannot audit.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/doctor.h"
#include "obs/journal.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "sim/wire_schema.h"

namespace {

using namespace renaming;

int usage() {
  std::fprintf(stderr,
               "usage: renaming_doctor diff A.bin B.bin\n"
               "       renaming_doctor explain J.bin [--slack X] "
               "[--constant C] [--phase-multiplier M] [--namespace N]\n"
               "       renaming_doctor show J.bin [--rounds]\n"
               "       renaming_doctor profile P.rnsp\n"
               "       renaming_doctor why P.rnpv --node V\n"
               "       renaming_doctor blame P.rnpv\n");
  return 2;
}

// Parses the artifact at `path` with `read`; on failure names the file and
// the reader's error on stderr (the caller exits 2).
template <typename Data>
bool load(const char* path, Data* out,
          bool (*read)(std::istream&, Data*, std::string*)) {
  std::ifstream in(path, std::ios::binary);
  std::string error = "cannot open";
  if (in && read(in, out, &error)) return true;
  std::fprintf(stderr, "renaming_doctor: %s: %s\n", path, error.c_str());
  return false;
}

double flag_real(int argc, char** argv, const char* name, double fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::stod(argv[i + 1]);
  }
  return fallback;
}

bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  obs::JournalData a, b;
  if (!load(argv[0], &a, obs::read_journal_binary) ||
      !load(argv[1], &b, obs::read_journal_binary)) {
    return 2;
  }
  const obs::DivergenceReport report = obs::diagnose_divergence(a, b);
  std::printf("%s", report.explanation.c_str());
  return static_cast<int>(report.verdict);  // the values are the exit codes
}

int cmd_explain(int argc, char** argv) {
  if (argc < 1) return usage();
  obs::JournalData data;
  if (!load(argv[0], &data, obs::read_journal_binary)) return 2;
  obs::BudgetParams params;
  params.algorithm = data.algorithm;
  params.n = data.n;
  params.f = data.f;
  // The namespace size is not journalled; 5n^2 matches every shipped
  // entry point's default and only the lower-bound term depends on it.
  params.namespace_size = static_cast<std::uint64_t>(
      flag_real(argc, argv, "--namespace", 5.0 * data.n * data.n));
  params.committee_constant = flag_real(argc, argv, "--constant", 0.0);
  params.phase_multiplier = static_cast<std::uint32_t>(
      flag_real(argc, argv, "--phase-multiplier", 3));
  params.slack = flag_real(argc, argv, "--slack", 1.0);
  const obs::AuditDiagnosis diagnosis = obs::diagnose_audit(params, data);
  if (!diagnosis.error.empty()) {
    std::fprintf(stderr, "renaming_doctor: %s: %s\n", argv[0],
                 diagnosis.error.c_str());
    return 2;
  }
  std::printf("%s", diagnosis.explanation.c_str());
  return diagnosis.ok ? 0 : 1;
}

int cmd_show(int argc, char** argv) {
  if (argc < 1) return usage();
  obs::JournalData data;
  if (!load(argv[0], &data, obs::read_journal_binary)) return 2;
  std::printf("journal %s  algorithm=%s n=%llu f=%llu\n", argv[0],
              data.algorithm.c_str(),
              static_cast<unsigned long long>(data.n),
              static_cast<unsigned long long>(data.f));
  std::printf("  rounds        %llu (%zu recorded, %llu dropped)\n",
              static_cast<unsigned long long>(data.rounds),
              data.records.size(),
              static_cast<unsigned long long>(data.dropped_rounds));
  std::printf("  messages      %llu\n",
              static_cast<unsigned long long>(data.total_messages));
  std::printf("  bits          %llu (max %u bits/message)\n",
              static_cast<unsigned long long>(data.total_bits),
              data.max_message_bits);
  std::printf("  crashes       %llu\n",
              static_cast<unsigned long long>(data.crashes));
  std::printf("  spoofs        %llu rejected\n",
              static_cast<unsigned long long>(data.spoofs_rejected));
  if (!flag_set(argc, argv, "--rounds")) return 0;
  for (const obs::JournalRound& r : data.records) {
    std::printf("  round %-5u fp=%016llx msgs=%-8llu bits=%-10llu active=%u\n",
                r.round, static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.bits), r.active_senders);
    for (const obs::JournalKindCount& k : r.kinds) {
      std::printf("    kind %-18s msgs=%-8llu bits=%llu\n",
                  sim::message_name(k.kind),
                  static_cast<unsigned long long>(k.messages),
                  static_cast<unsigned long long>(k.bits));
    }
  }
  return 0;
}

int cmd_why(int argc, char** argv) {
  if (argc < 1) return usage();
  long long node = -1;
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--node") == 0) node = std::atoll(argv[i + 1]);
  }
  if (node < 0) {
    std::fprintf(stderr, "renaming_doctor: why needs --node V\n");
    return usage();
  }
  obs::ProvenanceData data;
  if (!load(argv[0], &data, obs::read_provenance_binary)) return 2;
  const obs::WhyReport report =
      obs::diagnose_why(data, static_cast<NodeIndex>(node));
  std::printf("%s", report.explanation.c_str());
  return report.found ? 0 : 1;
}

int cmd_blame(int argc, char** argv) {
  if (argc < 1) return usage();
  obs::ProvenanceData data;
  if (!load(argv[0], &data, obs::read_provenance_binary)) return 2;
  const obs::BlameReport report = obs::diagnose_blame(data);
  std::printf("%s", report.explanation.c_str());
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 1) return usage();
  obs::ShardProfileData data;
  if (!load(argv[0], &data, obs::read_shard_profile_binary)) return 2;
  std::printf("%s", obs::describe_shard_profile(data).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "diff") return cmd_diff(argc - 2, argv + 2);
  if (command == "explain") return cmd_explain(argc - 2, argv + 2);
  if (command == "show") return cmd_show(argc - 2, argv + 2);
  if (command == "profile") return cmd_profile(argc - 2, argv + 2);
  if (command == "why") return cmd_why(argc - 2, argv + 2);
  if (command == "blame") return cmd_blame(argc - 2, argv + 2);
  return usage();
}
