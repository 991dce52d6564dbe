// renaming_bench: one command, five workloads of the paper's two protocols
// and their adversaries, every metric printed by name with its unit.
// README.md in this directory documents the workloads, the metrics, their
// bounds and which layer metric should move which end-to-end metric.
//
//   renaming_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//   renaming_bench --smoke --out-dir DIR
//
// One invocation runs one workload as a closed loop on this process: the
// inputs are built from --seed, one untimed serial reference execution
// runs, then executions of the same inputs run one at a time until T
// seconds have passed. Every execution is checked with verify_renaming and
// its exact counts (RunStats, new ids) must equal the reference's; on
// crash-mt the reference is the serial (crash-ff) execution, so a thread
// count that changes a byte is a failure. With --trace 0 the last stdout
// line carries the end-to-end metrics, with --trace 1 the per-layer ones
// from one extra traced execution. The exit code is 0 only if every
// execution passed.
//
// Everything is measured from outside through public APIs: the
// run_crash_renaming / run_byz_renaming entry points (each called from one
// adapter below), verify_renaming, and the obs::Telemetry and
// obs::ShardProfile observers, attached only in the traced execution.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/prng.h"
#include "core/system.h"
#include "core/verifier.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/phase.h"
#include "obs/shard_profile.h"
#include "obs/telemetry.h"
#include "sim/parallel/plan.h"
#include "sim/parallel/worker_pool.h"

// The benchmark measures the program users run: invariants on, telemetry
// hooks compiled in (README.md, "Build").
#if defined(RENAMING_UNCHECKED) || defined(RENAMING_NO_TELEMETRY)
#error "renaming_bench must be built with invariants and telemetry compiled in"
#endif

namespace renaming {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Protocol { kCrash, kByzantine };

struct Workload {
  const char* name;
  Protocol protocol;
  NodeIndex n;
  double constant;  ///< crash election constant / Byzantine pool constant
  bool parallel;    ///< engine threads = parallel_threads(), else 1
  /// Crash: CommitteeHunter budget. Byzantine: number of SplitReporters.
  /// 0 = failure-free.
  std::uint32_t faults;
};

constexpr Workload kWorkloads[] = {
    {"crash-ff", Protocol::kCrash, 1u << 13, 1.0, false, 0},
    {"crash-mt", Protocol::kCrash, 1u << 13, 1.0, true, 0},
    {"crash-hunter", Protocol::kCrash, 2048, 2.0, false, 128},
    {"byz-ff", Protocol::kByzantine, 1u << 16, 1.0, false, 0},
    {"byz-consensus", Protocol::kByzantine, 2048, 3.0, false, 24},
};

/// --smoke runs every workload at this n, one repetition.
constexpr NodeIndex kSmokeN = 256;
/// Timed executions per run at least, however short --seconds is.
constexpr std::uint32_t kMinReps = 3;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Engine threads of the parallel workload: min(4, nproc - 1), at least 2.
unsigned parallel_threads() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long t = std::min<long>(4, nproc - 1);
  return static_cast<unsigned>(std::max<long>(2, t));
}

/// Everything an execution consumes.
struct Inputs {
  SystemConfig cfg;
  crash::CrashParams crash;
  std::unique_ptr<sim::CrashAdversary> adversary;
  byzantine::ByzParams byz;
  std::vector<NodeIndex> byzantine;
};

/// Seed of the identity set, of the protocol's coins (cfg.seed, the
/// Byzantine beacon) and of the crash adversary's keep choices: a workload
/// constant, like n.
constexpr std::uint64_t kProtocolSeed = 9001;

/// The seed places a fixed identity set on the nodes (a permutation);
/// Byzantine SplitReporters hold fixed identities (ranks i*n/(f+1)+1)
/// wherever the seed placed them. Committee sizes are Binomial draws over
/// the ids and the coins: drawn afresh per seed, at n = 4096 they spread
/// crash run times from 0.43 s to 1.21 s over ten seeds and Byzantine
/// consensus from 91k to 163k rounds over six, so the spread across seeds
/// would measure the coin rather than the code. With everything else fixed,
/// every exact count of a workload is the same for every seed.
Inputs make_inputs(const Workload& w, NodeIndex n, std::uint64_t seed) {
  Inputs in;
  in.cfg = SystemConfig::random(n, 5ull * n * n, kProtocolSeed);
  Xoshiro256 rng(seed);
  for (NodeIndex i = n - 1; i > 0; --i) {
    std::swap(in.cfg.ids[i], in.cfg.ids[rng.below(i + 1)]);
  }
  const std::uint32_t faults = std::min<std::uint32_t>(w.faults, n / 8);
  if (w.protocol == Protocol::kCrash) {
    in.crash.election_constant = w.constant;
    if (faults > 0) {
      in.adversary = std::make_unique<crash::CommitteeHunter>(
          faults, crash::CommitteeHunter::Mode::kAtAnnounce,
          kProtocolSeed * 7);
    }
  } else {
    in.byz.pool_constant = w.constant;
    in.byz.shared_seed = kProtocolSeed;
    if (faults > 0) {
      std::vector<NodeIndex> by_rank(n);
      std::iota(by_rank.begin(), by_rank.end(), 0);
      std::sort(by_rank.begin(), by_rank.end(), [&](NodeIndex a, NodeIndex b) {
        return in.cfg.ids[a] < in.cfg.ids[b];
      });
      for (std::uint32_t i = 0; i < faults; ++i) {
        in.byzantine.push_back(
            by_rank[(static_cast<std::uint64_t>(i) * n) / (faults + 1) + 1]);
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// One adapter per protocol: the only places that call a run_* entry point.

/// How one execution runs: serial or on a worker pool, and what observes
/// it. Default: serial, unobserved.
struct ExecOptions {
  sim::parallel::ShardPlan plan;  ///< pool (null = serial) and shard profile
  obs::Telemetry* telemetry = nullptr;
};

struct Execution {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  /// Wasted work: crash committee re-elections (max p) or Byzantine
  /// consensus-loop iterations.
  std::uint32_t wasted = 0;
  double run_s = 0.0;  ///< the run_* call, in-run verify included
};

Execution run_crash(Inputs& in, const ExecOptions& o) {
  const auto start = Clock::now();
  crash::CrashRunResult r = crash::run_crash_renaming(
      in.cfg, in.crash, std::move(in.adversary), /*trace=*/nullptr,
      o.telemetry, /*journal=*/nullptr, o.plan);
  const double run_s = seconds_since(start);
  return {std::move(r.stats), std::move(r.outcomes), r.max_p, run_s};
}

Execution run_byz(Inputs& in, const ExecOptions& o) {
  const auto start = Clock::now();
  byzantine::ByzRunResult r = byzantine::run_byz_renaming(
      in.cfg, in.byz, in.byzantine,
      in.byzantine.empty() ? nullptr : &byzantine::SplitReporter::make,
      /*max_rounds=*/0, /*trace=*/nullptr, o.telemetry, /*journal=*/nullptr,
      o.plan);
  const double run_s = seconds_since(start);
  return {std::move(r.stats), std::move(r.outcomes), r.loop_iterations, run_s};
}

Execution execute(const Workload& w, Inputs& in, const ExecOptions& o = {}) {
  return w.protocol == Protocol::kCrash ? run_crash(in, o) : run_byz(in, o);
}

/// The renaming properties the protocol promises: strong, unique, every
/// correct node decided, and order-preserving for the Byzantine protocol.
bool verified(const Workload& w, const Execution& e, NodeIndex n) {
  return verify_renaming(e.outcomes, n).ok(w.protocol == Protocol::kByzantine);
}

bool same_counts(const Execution& a, const Execution& b) {
  if (!(a.stats == b.stats) || a.wasted != b.wasted ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].new_id != b.outcomes[i].new_id) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Process memory

/// Resets VmHWM to the current RSS (Linux clear_refs); false if the kernel
/// refuses, in which case the peak covers the whole process.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM in MiB, or a negative value if /proc is unreadable.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile of an unsorted sample, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// The result line: exactly correct / attempted / failed / metrics; the
/// run is correct when no execution failed. Metric names and units are
/// literals of this file, none needing a JSON escape.
std::string result_json(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Human-readable timing summary: median, min, max and sample count.
void print_timing(const char* name, const std::vector<double>& v) {
  if (v.empty()) return;
  std::printf("  %-14s median %.6f s  min %.6f s  max %.6f s  (%zu samples)\n",
              name, median(v), *std::min_element(v.begin(), v.end()),
              *std::max_element(v.begin(), v.end()), v.size());
}

// ---------------------------------------------------------------------------
// One invocation

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 9001;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

class Run {
 public:
  explicit Run(const Options& opt)
      : w_(*opt.workload), opt_(opt), n_(opt.smoke ? kSmokeN : w_.n) {
    // One pool per process, as ShardPlan expects, shared by every
    // parallel execution of the run.
    if (w_.parallel) {
      pool_ = std::make_unique<sim::parallel::WorkerPool>(parallel_threads());
    }
  }

  Result go() {
    // Untimed serial reference: warms the allocator and fixes the exact
    // counts every later execution must reproduce.
    Inputs ref_in = make_inputs(w_, n_, opt_.seed);
    reference_ = execute(w_, ref_in);
    attempt(reference_);

    if (opt_.trace) {
      traced();
    } else {
      rss_reset_refused_ = !reset_peak_rss();
      closed_loop();
      end_to_end();
    }
    return std::move(result_);
  }

 private:
  /// Counts one execution; it fails on a verifier rejection or any exact
  /// count that differs from the reference.
  void attempt(const Execution& e) {
    ++result_.attempted;
    const auto start = Clock::now();
    const bool ok = verified(w_, e, n_);
    verify_s_.push_back(seconds_since(start));
    if (!ok || !same_counts(e, reference_)) ++result_.failed;
  }

  /// The workload's own way to run: on the pool for crash-mt, else
  /// serial; `profile` (optional) rides on the shard plan.
  ExecOptions as_workload(obs::ShardProfile* profile = nullptr) const {
    ExecOptions o;
    o.plan.pool = pool_.get();
    o.plan.profile = profile;
    return o;
  }

  /// Builds the execution's inputs, timed as set-up, then runs it. Set-up
  /// samples thus spread over the run like the executions and see the same
  /// share of a shared host's slow phases, which last seconds. A burst of
  /// set-up timed at one moment lands wholly inside or outside one.
  Execution timed(const ExecOptions& o) {
    const auto start = Clock::now();
    Inputs in = make_inputs(w_, n_, opt_.seed);
    setup_s_.push_back(seconds_since(start));
    Execution e = execute(w_, in, o);
    attempt(e);
    return e;
  }

  /// Executions one at a time until --seconds passed and at least
  /// kMinReps ran (one in --smoke).
  void closed_loop() {
    const std::uint32_t min_reps = opt_.smoke ? 1 : kMinReps;
    const auto start = Clock::now();
    while (run_s_.size() < min_reps || seconds_since(start) < opt_.seconds) {
      run_s_.push_back(timed(as_workload()).run_s);
    }
  }

  void end_to_end() {
    const Execution& ref = reference_;
    const double peak = peak_rss_mib();
    if (peak <= 0.0) ++result_.failed;  // no memory figure: not a result
    std::printf("  peak RSS %.1f MiB (%s)\n", peak,
                rss_reset_refused_ ? "process high-water mark, reset refused"
                                   : "VmHWM reset before the timed loop");
    print_timing("run_s", run_s_);
    print_timing("setup_s", setup_s_);
    result_.metrics = {
        {"run_s", median(run_s_), "s"},
        {"setup_s", median(setup_s_), "s"},
        {"peak_rss_mb", peak, "MiB"},
        {"bits_per_node",
         static_cast<double>(ref.stats.total_bits) / static_cast<double>(n_),
         "bit"},
        {"rounds", static_cast<double>(ref.stats.rounds), "round"},
    };
  }

  void traced() {
    // Untraced executions first: the baseline of obs.trace_overhead_pct
    // and, on crash-mt, of the serial-versus-parallel speedup (the two
    // alternate so host drift hits both sides alike).
    std::vector<double> untraced_s, serial_s;
    const std::uint32_t reps = opt_.smoke ? 1 : kMinReps;
    for (std::uint32_t i = 0; i < reps; ++i) {
      untraced_s.push_back(timed(as_workload()).run_s);
      if (pool_) serial_s.push_back(timed({}).run_s);
    }

    obs::Telemetry telemetry;
    // Only the totals are read: keep one per-round sample, not every round.
    obs::ShardProfile profile(obs::ShardProfile::Options{1});
    ExecOptions traced = as_workload(&profile);
    Execution traced_e;
    if (pool_) {
      // A live Telemetry forces the shard callbacks serial, so the
      // parallel execution carries the profile alone and the protocol
      // phase ledgers come from a second, serial traced execution.
      traced_e = timed(traced);
      ExecOptions serial;
      serial.telemetry = &telemetry;
      (void)timed(serial);
    } else {
      traced.telemetry = &telemetry;
      traced_e = timed(traced);
    }
    per_layer(telemetry, profile.data(), traced_e.run_s, median(untraced_s),
              pool_ ? median(serial_s) / median(untraced_s) : 1.0);
  }

  void per_layer(const obs::Telemetry& tel, const obs::ShardProfileData& prof,
                 double traced_s, double untraced_s, double speedup) {
    const Execution& ref = reference_;
    std::vector<Metric>& m = result_.metrics;
    // Time on the round's critical path per engine phase: the slowest
    // shard's busy plus barrier wait (a serial run has one lane, no wait).
    // What the four leave of the traced run_s is outside the rounds.
    const auto path_s = [&](obs::ShardPhase p) {
      std::int64_t ns = 0;
      for (const auto& t : prof.totals[static_cast<std::size_t>(p)]) {
        ns = std::max(ns, t.busy_ns + t.wait_ns);
      }
      return static_cast<double>(ns) / 1e9;
    };
    double in_rounds = 0.0;
    for (const auto p : {obs::ShardPhase::kSend, obs::ShardPhase::kDeliver,
                         obs::ShardPhase::kMerge, obs::ShardPhase::kReceive}) {
      in_rounds += path_s(p);
      m.push_back({std::string("sim.") + obs::shard_phase_name(p) + "_s",
                   path_s(p), "s"});
    }
    m.push_back({"sim.outside_rounds_s", traced_s - in_rounds, "s"});

    std::vector<double> round_ms;
    for (const std::int64_t ns : tel.per_round_wall_ns()) {
      round_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    // Tail: the highest of p90/p99/p99.9 with >= 10 rounds beyond it; a
    // run of fewer than 100 rounds states its maximum (percentile 100).
    double tail_pct = 100.0;
    for (const double q : {0.999, 0.99, 0.9}) {
      if (static_cast<double>(round_ms.size()) * (1.0 - q) >= 10.0) {
        tail_pct = 100.0 * q;
        break;
      }
    }
    const double tail =
        round_ms.empty() ? 0.0 : percentile(round_ms, tail_pct / 100.0);
    m.push_back({"sim.round_ms_p50",
                 round_ms.empty() ? 0.0 : percentile(round_ms, 0.5), "ms"});
    m.push_back({"sim.round_ms_tail", tail, "ms"});
    std::printf("  sim.round_ms_tail is p%g of %zu rounds\n", tail_pct,
                round_ms.size());
    double active = 0.0;
    const auto senders = tel.per_round_active_senders();
    for (const std::uint32_t a : senders) active += a;
    m.push_back({"sim.active_senders_mean",
                 senders.empty() ? 0.0 : active / senders.size(), "node"});
    m.push_back({"sim.messages",
                 static_cast<double>(ref.stats.total_messages), "msg"});
    m.push_back({"sim.bits", static_cast<double>(ref.stats.total_bits), "bit"});
    m.push_back({"sim.spoofs_rejected",
                 static_cast<double>(ref.stats.spoofs_rejected), "msg"});
    m.push_back({"sim.crashes", static_cast<double>(ref.stats.crashes),
                 "node"});

    m.push_back({"sim.parallel.barrier_wait_share",
                 obs::barrier_wait_share(prof), "ratio"});
    m.push_back({"sim.parallel.send_imbalance",
                 obs::shard_imbalance(prof, obs::ShardPhase::kSend), "ratio"});
    m.push_back({"sim.parallel.receive_imbalance",
                 obs::shard_imbalance(prof, obs::ShardPhase::kReceive),
                 "ratio"});
    m.push_back({"sim.parallel.speedup", speedup, "ratio"});

    static constexpr std::pair<const char*, obs::PhaseId> kPhases[] = {
        {"crash", obs::PhaseId::kCommitteeAnnounce},
        {"crash", obs::PhaseId::kStatusReport},
        {"crash", obs::PhaseId::kCommitteeResponse},
        {"byzantine", obs::PhaseId::kCommitteeElection},
        {"byzantine", obs::PhaseId::kIdentityAggregation},
        {"byzantine", obs::PhaseId::kDiffExchange},
        {"byzantine", obs::PhaseId::kDistribution},
        {"byzantine", obs::PhaseId::kAwaitName},
        {"consensus", obs::PhaseId::kFingerprintValidation},
        {"consensus", obs::PhaseId::kConsensus},
    };
    for (const auto& [module, id] : kPhases) {
      const obs::PhaseTotals& t = tel.phase(id);
      const std::string prefix =
          std::string(module) + "." + obs::phase_name(id) + ".";
      m.push_back({prefix + "wall_s", static_cast<double>(t.wall_ns) / 1e9,
                   "s"});
      m.push_back({prefix + "msgs", static_cast<double>(t.messages), "msg"});
      m.push_back({prefix + "bits", static_cast<double>(t.bits), "bit"});
    }
    const bool crash = w_.protocol == Protocol::kCrash;
    m.push_back({"crash.max_p", crash ? ref.wasted : 0.0, "count"});
    m.push_back({"byzantine.loop_iterations", crash ? 0.0 : ref.wasted,
                 "count"});
    m.push_back({"core.verify_s", median(verify_s_), "s"});
    m.push_back({"obs.trace_overhead_pct",
                 100.0 * (traced_s / untraced_s - 1.0), "%"});
  }

  const Workload& w_;
  const Options& opt_;
  const NodeIndex n_;
  std::unique_ptr<sim::parallel::WorkerPool> pool_;  ///< null = serial
  Execution reference_;  ///< the exact counts every execution must match
  Result result_;
  bool rss_reset_refused_ = false;
  std::vector<double> setup_s_, run_s_, verify_s_;
};

std::string header(const Options& opt) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "renaming_bench workload=%s seed=%llu seconds=%g trace=%d%s",
                opt.workload->name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
  return buf;
}

/// Runs one invocation and prints its metrics, the result line last.
Result run_one(const Options& opt) {
  std::printf("%s\n", header(opt).c_str());
  Result r = Run(opt).go();
  for (Metric& m : r.metrics) {
    std::printf("  %-44s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {  // JSON has no NaN or infinity: the
      m.value = 0.0;                // value is unusable and the run fails
      ++r.failed;
    }
  }
  std::printf("%s\n", result_json(r.attempted, r.failed, r.metrics).c_str());
  std::fflush(stdout);
  return r;
}

/// Every workload at a tiny n, one repetition, both modes. Each result
/// (header line, result line) is also written to DIR/<workload>.trace<t>
/// for renaming_bench_compare.py --names.
int smoke(const std::string& out_dir) {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = &w;
      opt.seconds = 0;
      opt.trace = trace;
      opt.smoke = true;
      Result r = run_one(opt);
      ok = ok && r.failed == 0 && r.attempted > 1;
      const std::string path = out_dir + "/" + w.name +
                               (trace ? ".trace1" : ".trace0");
      std::ofstream f(path);
      f << header(opt) << "\n"
        << result_json(r.attempted, r.failed, r.metrics) << "\n";
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        ok = false;
      }
    }
  }
  std::printf("smoke %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "renaming_bench: %s\n"
               "usage: renaming_bench --workload NAME [--seed S] "
               "[--seconds T] [--trace 0|1]\n"
               "       renaming_bench --smoke --out-dir DIR\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opt;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = find_workload(value);
      if (opt.workload == nullptr) return usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds >= 0.0) || opt.seconds > 3600.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.smoke) {
    if (out_dir.empty()) return usage("--smoke needs --out-dir");
    return smoke(out_dir);
  }
  if (opt.workload == nullptr) return usage("--workload is required");
  return run_one(opt).failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace renaming

int main(int argc, char** argv) { return renaming::main_impl(argc, argv); }
