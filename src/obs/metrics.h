// Metric instruments for the observability layer (docs/OBSERVABILITY.md).
//
// Hot-path discipline: an instrument is resolved from the registry ONCE
// (setup time, ordered-map lookup) and then held by pointer; recording is a
// pointer-bump — no maps, no strings, no branches beyond the caller's
// telemetry-enabled check. The registry owns the instruments (stable
// addresses) and iterates them in name order for export, so metric output
// is deterministic given deterministic values.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"

namespace renaming::obs {

/// Monotonically increasing 64-bit counter.
class Counter {
 public:
  void add(std::uint64_t delta) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value + running-max gauge (e.g. active senders per round).
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Log2-bucketed histogram: bucket b holds values with bit_width(v) == b,
/// i.e. bucket 0 is exactly {0} and bucket b >= 1 covers [2^(b-1), 2^b).
/// Used for message sizes (bits), per-round latencies (ns) and inbox
/// occupancy, all of which span several orders of magnitude.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64_t + 1

  void add(std::uint64_t value, std::uint64_t weight = 1) {
    std::size_t b = 0;
    while (value != 0) {  // bit_width without <bit> (header stays light)
      value >>= 1;
      ++b;
    }
    buckets_[b] += weight;
    count_ += weight;
  }

  /// Adds `value` once and `sum` bookkeeping for `weight` samples of it.
  void add_weighted_sum(std::uint64_t value, std::uint64_t weight) {
    sum_ += value * weight;
    add(value, weight);
  }

  /// Adds every sample of `other`, as if each had been added here.
  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }

  /// Log-bucket percentile: the lower bound of the bucket where the
  /// cumulative count crosses q — exact when the bucket holds one distinct
  /// value, otherwise an under-estimate by at most the bucket width (2x).
  /// q is clamped to [0, 1]; an empty histogram yields 0.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    std::uint64_t last = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      last = bucket_lo(b);
      seen += buckets_[b];
      if (seen >= target) return last;
    }
    return last;
  }
  std::uint64_t bucket(std::size_t b) const {
    RENAMING_CHECK(b < kBuckets, "histogram bucket out of range");
    return buckets_[b];
  }
  /// Inclusive lower edge of bucket b (0 for the zero bucket).
  static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : (1ull << (b - 1));
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Name -> instrument registry. Lookup happens at setup time only; the
/// returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return *slot(counters_, name); }
  Gauge& gauge(const std::string& name) { return *slot(gauges_, name); }
  LogHistogram& histogram(const std::string& name) {
    return *slot(histograms_, name);
  }

  // Ordered iteration for the exporters.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<LogHistogram>>& histograms()
      const {
    return histograms_;
  }

 private:
  template <typename T>
  static T* slot(std::map<std::string, std::unique_ptr<T>>& m,
                 const std::string& name) {
    auto it = m.find(name);
    if (it == m.end()) {
      it = m.emplace(name, std::make_unique<T>()).first;
    }
    return it->second.get();
  }

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

}  // namespace renaming::obs
