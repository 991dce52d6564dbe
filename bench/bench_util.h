// Shared helpers for the experiment harnesses (see DESIGN.md section 3 for
// the experiment index and EXPERIMENTS.md for recorded results).
//
// Threading note: all concurrency here rides on the repository's one
// worker pool, sim::parallel::WorkerPool (the only code under src/ where
// scripts/protocol_lint.py permits threading primitives). The parallelism
// in this header fans *independent seeds/configs* across cores; whether a
// simulation itself runs shard-parallel is the harness's choice via
// sim::parallel::ShardPlan, and either way its output is deterministic.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>
#if defined(__GLIBC__)  // defined by the headers above
#include <malloc.h>
#endif

#include "common/check.h"
#include "common/types.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/rss.h"
#include "obs/telemetry.h"
#include "sim/parallel/worker_pool.h"
#include "sim/stats.h"

namespace renaming::bench {

/// Prints a fixed-width table; every harness in bench/ emits the same
/// row/series format so EXPERIMENTS.md can quote outputs verbatim.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size() + 2);
  }

  void row(const std::vector<std::string>& cells) {
    RENAMING_CHECK(cells.size() == headers_.size(),
                   "table row arity must match the header count");
    rows_.push_back(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size() + 2);
    }
  }

  void print() const {
    print_row(headers_);
    std::string rule;
    for (std::size_t w : widths_) rule += std::string(w, '-') + "+";
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) print_row(r);
    std::printf("\n");
  }

 private:
  void print_row(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::string c = cells[i];
      c.resize(widths_[i], ' ');
      line += c + "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string human(std::uint64_t v) {
  char buf[32];
  if (v >= 10'000'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.1fG", static_cast<double>(v) / 1e9);
  } else if (v >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(v) / 1e6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof buf, "%.1fk", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

inline std::string fixed(double v, int digits = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}


/// Mean / stddev / extrema accumulator for multi-seed experiment cells.
class Summary {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    sum_sq_ += x * x;
    min_ = count_ == 1 ? x : (x < min_ ? x : min_);
    max_ = count_ == 1 ? x : (x > max_ ? x : max_);
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double stddev() const {
    if (count_ < 2) return 0.0;
    const double m = mean();
    const double var = (sum_sq_ - count_ * m * m) / (count_ - 1);
    return var <= 0.0 ? 0.0 : std::sqrt(var);
  }
  double min() const { return min_; }
  double max() const { return max_; }

  std::string mean_pm_std() const {
    return fixed(mean(), 0) + " +/- " + fixed(stddev(), 0);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0, sum_sq_ = 0.0, min_ = 0.0, max_ = 0.0;
};

// ---------------------------------------------------------------------------
// JSON output (--json mode shared by the harnesses; see docs/PERFORMANCE.md)

/// Minimal JSON value builder: enough for the flat metadata-plus-rows shape
/// every harness emits (BENCH_*.json), with stable key order so diffs of
/// committed artifacts stay readable.
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  static Json str(std::string v) {
    Json j(Kind::kScalar);
    // Appended, not `"\"" + std::string` (GCC 12 -Wrestrict misfires).
    j.scalar_ = '"';
    j.scalar_ += obs::json_escape(v);
    j.scalar_ += '"';
    return j;
  }
  /// NaN and infinities have no JSON spelling; they become null.
  static Json num(double v, int digits = 3) {
    if (!std::isfinite(v)) return null();
    Json j(Kind::kScalar);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    j.scalar_ = buf;
    return j;
  }
  static Json integer(std::uint64_t v) {
    Json j(Kind::kScalar);
    j.scalar_ = std::to_string(v);
    return j;
  }
  static Json boolean(bool v) {
    Json j(Kind::kScalar);
    j.scalar_ = v ? "true" : "false";
    return j;
  }
  static Json null() {
    Json j(Kind::kScalar);
    j.scalar_ = "null";
    return j;
  }

  Json& set(const std::string& key, Json v) {
    RENAMING_CHECK(kind_ == Kind::kObject, "set() on a non-object");
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  Json& push(Json v) {
    RENAMING_CHECK(kind_ == Kind::kArray, "push() on a non-array");
    members_.emplace_back(std::string(), std::move(v));
    return *this;
  }

  std::string dump(int indent = 0) const {
    std::string out;
    write(out, indent);
    out += "\n";
    return out;
  }

 private:
  enum class Kind { kObject, kArray, kScalar };
  explicit Json(Kind kind) : kind_(kind) {}

  void write(std::string& out, int indent) const {
    const std::string pad(2 * static_cast<std::size_t>(indent), ' ');
    const std::string inner_pad(2 * static_cast<std::size_t>(indent + 1), ' ');
    switch (kind_) {
      case Kind::kScalar:
        out += scalar_;
        break;
      case Kind::kObject:
      case Kind::kArray: {
        const char open = kind_ == Kind::kObject ? '{' : '[';
        const char close = kind_ == Kind::kObject ? '}' : ']';
        if (members_.empty()) {
          out += open;
          out += close;
          break;
        }
        out += open;
        out += "\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += inner_pad;
          if (kind_ == Kind::kObject) {
            out += "\"" + obs::json_escape(members_[i].first) + "\": ";
          }
          members_[i].second.write(out, indent + 1);
          if (i + 1 < members_.size()) out += ",";
          out += "\n";
        }
        out += pad;
        out += close;
        break;
      }
    }
  }

  Kind kind_;
  std::string scalar_;
  std::vector<std::pair<std::string, Json>> members_;
};

// ---------------------------------------------------------------------------
// The benchmark row: every JSON bench writes BENCH_*.json as a list of these,
// and scripts/bench_compare.py reads them with one keyed compare.

/// The module prefix renaming_bench gives each protocol phase.
inline const char* phase_module(obs::PhaseId p) {
  switch (p) {
    case obs::PhaseId::kCommitteeAnnounce:
    case obs::PhaseId::kStatusReport:
    case obs::PhaseId::kCommitteeResponse:
      return "crash";
    case obs::PhaseId::kFingerprintValidation:
    case obs::PhaseId::kConsensus:
      return "consensus";
    case obs::PhaseId::kBaselineExchange:
      return "baselines";
    case obs::PhaseId::kUnattributed:
      return "sim";
    default:
      return "byzantine";
  }
}

/// One benchmark cell. The key is (workload, n, f, threads); a method or
/// variant goes in the workload name ("cht-mt", "byz-mt", "obg-closed").
/// rounds/messages/bits are exact and belong to the cell's FIRST seed, so
/// a smoke cell and a full cell with the same key compare exactly; wall_s
/// covers every seed. `layers` uses renaming_bench's metric names
/// ("byzantine.<phase>.msgs", "sim.parallel.barrier_wait_share",
/// "obs.overhead_pct", ...): names ending in .msgs or .bits are exact,
/// names ending in _s are wall times.
struct Row {
  struct Layer {
    std::string name;
    double value = 0.0;
    int digits = 3;  ///< printed decimals; 0 for the exact counts
  };

  std::string workload;
  NodeIndex n = 0;
  NodeIndex f = 0;
  unsigned threads = 1;  ///< engine threads per simulation (1 = serial)
  std::uint64_t seeds = 1;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double wall_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;  ///< this cell's own high-water mark
  std::vector<Layer> layers = {};

  void layer(std::string name, double value, int digits = 3) {
    layers.push_back({std::move(name), value, digits});
  }

  /// Per-phase msgs/bits/wall_s layers for every phase that saw traffic or
  /// wall time; the msgs and bits ledgers sum to the run totals.
  void phase_layers(const obs::Telemetry& telemetry) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const auto id = static_cast<obs::PhaseId>(p);
      const obs::PhaseTotals& t = telemetry.phase(id);
      if (t.messages == 0 && t.bits == 0 && t.wall_ns == 0) continue;
      const std::string prefix =
          std::string(phase_module(id)) + "." + obs::phase_name(id) + ".";
      layer(prefix + "msgs", static_cast<double>(t.messages), 0);
      layer(prefix + "bits", static_cast<double>(t.bits), 0);
      layer(prefix + "wall_s", static_cast<double>(t.wall_ns) / 1e9, 6);
    }
  }

  Json json() const {
    Json l = Json::object();
    for (const Layer& x : layers) l.set(x.name, Json::num(x.value, x.digits));
    Json row = Json::object();
    row.set("workload", Json::str(workload))
        .set("n", Json::integer(n))
        .set("f", Json::integer(f))
        .set("threads", Json::integer(threads))
        .set("seeds", Json::integer(seeds))
        .set("rounds", Json::integer(rounds))
        .set("messages", Json::integer(messages))
        .set("bits", Json::integer(bits))
        .set("wall_s", Json::num(wall_s, 6))
        .set("peak_rss_bytes", Json::integer(peak_rss_bytes))
        .set("layers", std::move(l));
    return row;
  }
};

// ---------------------------------------------------------------------------
// Seed-level parallelism for the harness drivers

/// The process-wide pool the harness drivers share; sized to the machine.
/// Reused across calls so repeated sweeps don't respawn threads.
inline sim::parallel::WorkerPool& harness_pool() {
  static sim::parallel::WorkerPool pool(0);  // 0 = hardware concurrency
  return pool;
}

/// Runs jobs 0..count-1 across the shared harness_pool() (default width:
/// one thread per core; `threads` caps it). Each job must write only its
/// own result slot; the caller then reads results in job order, so the
/// *output* is deterministic even though the scheduling is not. Jobs must
/// not call parallel_jobs themselves — the pool is non-reentrant; a cell
/// that wants an intra-run parallel engine gets its own WorkerPool.
template <typename Fn>
inline void parallel_jobs(std::size_t count, Fn&& fn, unsigned threads = 0) {
  harness_pool().run(count, fn, threads);
}

// ---------------------------------------------------------------------------
// Process metrics + tiny CLI-flag helpers

/// Pins glibc's malloc thresholds at their defaults; a row-writing bench
/// calls it first thing. Left dynamic, every free of a large mmapped block
/// raises them, so the next cell's big vectors land on arena heaps that
/// are never given back: each row's peak_rss_bytes would then start from
/// the heap an earlier cell (or its own warm-up) left resident instead of
/// from this cell's own allocations.
inline void pin_malloc_thresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
#endif
}

/// Resets the high-water mark to the current resident set (writes 5 to
/// /proc/self/clear_refs), so the next obs::peak_rss_bytes() (obs/rss.h) is
/// one cell's peak rather than the largest of every earlier cell. Returns
/// false where the reset or the VmHWM read is unsupported.
inline bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) return false;
  return obs::peak_rss_bytes() > 0;
}

/// Measures one cell: resets the RSS high-water mark, times `run` (which
/// runs every seed and returns the FIRST seed's RunStats) and fills the
/// counts, wall_s and peak_rss_bytes of `row` (0 where the reset is
/// unsupported).
template <typename Fn>
Row measure(Row row, Fn&& run) {
  const bool rss_reset = reset_peak_rss();
  const auto start = std::chrono::steady_clock::now();
  const sim::RunStats stats = run();
  const auto stop = std::chrono::steady_clock::now();
  row.rounds = stats.rounds;
  row.messages = stats.total_messages;
  row.bits = stats.total_bits;
  row.wall_s = std::chrono::duration<double>(stop - start).count();
  row.peak_rss_bytes = rss_reset ? obs::peak_rss_bytes() : 0;
  return row;
}

/// Prints the rows as one table; of the layers it shows only the sim.* and
/// obs.* ones (the per-phase ledgers stay in the JSON).
inline void print_rows(const char* title, const std::vector<Row>& rows) {
  Table table({"workload", "n", "f", "threads", "seeds", "rounds",
               "messages", "bits", "msgs/n", "bits/n", "wall s", "peak rss",
               "layers"});
  for (const Row& r : rows) {
    std::string notes;
    for (const Row::Layer& l : r.layers) {
      if (l.name.rfind("sim.", 0) != 0 && l.name.rfind("obs.", 0) != 0) {
        continue;
      }
      notes += (notes.empty() ? "" : " ") + l.name + "=" +
               fixed(l.value, l.digits);
    }
    table.row({r.workload, std::to_string(r.n), std::to_string(r.f),
               std::to_string(r.threads), std::to_string(r.seeds),
               std::to_string(r.rounds), human(r.messages), human(r.bits),
               fixed(static_cast<double>(r.messages) / r.n, 1),
               fixed(static_cast<double>(r.bits) / r.n, 1),
               fixed(r.wall_s, 3), human(r.peak_rss_bytes), notes});
  }
  std::printf("== %s ==\n", title);
  table.print();
}

/// Writes {"bench", "smoke", "rows"} to `path`; 0 on success. Every row
/// must carry its own peak: a row without one would pass any RSS gate.
inline int write_json(const char* bench, bool smoke,
                      const std::vector<Row>& rows, const std::string& path) {
  Json list = Json::array();
  for (const Row& r : rows) {
    RENAMING_CHECK(r.peak_rss_bytes > 0,
                   "peak_rss_bytes needs the per-cell high-water reset");
    list.push(r.json());
  }
  Json doc = Json::object();
  doc.set("bench", Json::str(bench))
      .set("smoke", Json::boolean(smoke))
      .set("rows", std::move(list));
  std::ofstream out(path);
  if (!(out << doc.dump())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Value of `--flag=value` or `--flag value`; `fallback` when absent.
inline std::string flag_value(int argc, char** argv, const std::string& flag,
                              const std::string& fallback) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == flag && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

}  // namespace renaming::bench
