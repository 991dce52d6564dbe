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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/json.h"
#include "obs/rss.h"
#include "sim/parallel/worker_pool.h"

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
    j.scalar_ = "\"" + obs::json_escape(v) + "\"";
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

/// Resets the high-water mark to the current resident set (writes 5 to
/// /proc/self/clear_refs), so the next obs::peak_rss_bytes() (obs/rss.h) is
/// one cell's peak rather than the largest of every earlier cell. Returns
/// false where the reset or the VmHWM read is unsupported; the harness
/// then reports that cell's peak as null.
inline bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) return false;
  return obs::peak_rss_bytes() > 0;
}

/// A cell's peak_rss_bytes JSON value: 0 (no per-cell reset) is null.
inline Json rss_json(std::uint64_t peak_rss) {
  return peak_rss > 0 ? Json::integer(peak_rss) : Json::null();
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
