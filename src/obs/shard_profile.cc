#include "obs/shard_profile.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/binio.h"

namespace renaming::obs {

const char* shard_phase_name(ShardPhase p) {
  switch (p) {
    case ShardPhase::kSend:
      return "send";
    case ShardPhase::kDeliver:
      return "deliver";
    case ShardPhase::kMerge:
      return "merge";
    case ShardPhase::kReceive:
      return "receive";
  }
  return "?";
}

double shard_imbalance(const ShardProfileData& data, ShardPhase p) {
  const auto& row = data.totals[static_cast<std::size_t>(p)];
  std::int64_t max = 0;
  std::int64_t sum = 0;
  std::size_t lanes = 0;
  for (const ShardPhaseTotals& t : row) {
    if (t.rounds == 0) continue;
    max = std::max(max, t.busy_ns);
    sum += t.busy_ns;
    ++lanes;
  }
  if (lanes == 0 || sum <= 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(lanes);
  return static_cast<double>(max) / mean;
}

double barrier_wait_share(const ShardProfileData& data) {
  std::int64_t busy = 0;
  std::int64_t wait = 0;
  for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
    if (!shard_phase_parallel(static_cast<ShardPhase>(p))) continue;
    for (const ShardPhaseTotals& t : data.totals[p]) {
      busy += t.busy_ns;
      wait += t.wait_ns;
    }
  }
  const std::int64_t total = busy + wait;
  if (total <= 0) return 0.0;
  return static_cast<double>(wait) / static_cast<double>(total);
}

std::uint32_t straggler_shard(const ShardProfileData& data) {
  std::uint32_t best = 0;
  std::int64_t best_busy = -1;
  for (std::uint32_t s = 0; s < data.shards; ++s) {
    std::int64_t busy = 0;
    for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
      if (!shard_phase_parallel(static_cast<ShardPhase>(p))) continue;
      if (s < data.totals[p].size()) busy += data.totals[p][s].busy_ns;
    }
    if (busy > best_busy) {
      best_busy = busy;
      best = s;
    }
  }
  return best;
}

ShardProfile::ShardProfile() : ShardProfile(Options{}) {}

ShardProfile::ShardProfile(Options opts) : opts_(opts) {}

void ShardProfile::begin_run(NodeIndex n, unsigned shards) {
  if (shards == 0) shards = 1;
  const std::string algorithm = std::move(data_.algorithm);
  data_ = ShardProfileData{};
  data_.algorithm = algorithm;
  data_.n = n;
  data_.shards = shards;
  for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
    data_.totals[p].assign(shards, ShardPhaseTotals{});
  }
}

void ShardProfile::on_round_begin(Round round) {
  open_.round = round;
  open_.busy_ns.assign(kShardPhaseCount * data_.shards, 0);
  open_.wait_ns.assign(kShardPhaseCount * data_.shards, 0);
}

void ShardProfile::note_shard(ShardPhase p, unsigned shard,
                              std::int64_t busy_ns, std::int64_t wait_ns) {
  if (busy_ns < 0) busy_ns = 0;
  if (wait_ns < 0) wait_ns = 0;
  const std::size_t pi = static_cast<std::size_t>(p);
  if (shard >= data_.totals[pi].size()) return;
  ShardPhaseTotals& t = data_.totals[pi][shard];
  t.busy_ns += busy_ns;
  t.wait_ns += wait_ns;
  ++t.rounds;
  const std::size_t slot = pi * data_.shards + shard;
  if (slot < open_.busy_ns.size()) {
    open_.busy_ns[slot] += busy_ns;
    open_.wait_ns[slot] += wait_ns;
  }
}

void ShardProfile::on_round_end(Round round) {
  open_.round = round;
  // The journal's ring policy: samples stay ordered oldest to newest, so
  // the binary format and the doctor's report never need to unrotate.
  if (opts_.ring_capacity > 0 && data_.samples.size() >= opts_.ring_capacity) {
    data_.samples.erase(data_.samples.begin());
    ++data_.dropped_samples;
  }
  data_.samples.push_back(std::move(open_));
  open_ = ShardRoundSample{};
}

// --- binary format ----------------------------------------------------------
//
// RNSP v1: the shared obs/binio.h header, then fixed-width fields in struct
// order (docs/OBSERVABILITY.md "Binary artifacts").

namespace {

constexpr char kMagic[4] = {'R', 'N', 'S', 'P'};
constexpr std::uint32_t kVersion = 1;

// The aggregates above sum at most 4 * kMaxShards ledger times in int64,
// so a reader that bounds both keeps every sum from overflowing.
constexpr std::uint32_t kMaxShards = 4096;
constexpr std::int64_t kMaxShardNs = std::int64_t{1} << 49;  // ~6.5 days

void append_ratio(std::string* out, double v) {
  // Two decimal places without <iostream> formatting state.
  const auto scaled = static_cast<std::int64_t>(v * 100.0 + 0.5);
  *out += std::to_string(scaled / 100);
  *out += '.';
  *out += static_cast<char>('0' + (scaled / 10) % 10);
  *out += static_cast<char>('0' + scaled % 10);
}

std::string format_ms(std::int64_t ns) {
  std::int64_t us = ns / 1000;
  std::string s = std::to_string(us / 1000);
  s += '.';
  s += static_cast<char>('0' + (us / 100) % 10);
  s += static_cast<char>('0' + (us / 10) % 10);
  s += static_cast<char>('0' + us % 10);
  s += "ms";
  return s;
}

}  // namespace

void write_shard_profile_binary(std::ostream& out,
                                const ShardProfileData& data) {
  binio::Writer w(out);
  w.header(kMagic, kVersion, data.algorithm, data.n);
  w.u32(data.shards);
  w.u64(data.rounds);
  w.u64(data.dropped_samples);
  for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
    for (const ShardPhaseTotals& t : data.totals[p]) {
      w.i64(t.busy_ns);
      w.i64(t.wait_ns);
      w.u64(t.rounds);
    }
  }
  w.u64(data.samples.size());
  for (const ShardRoundSample& s : data.samples) {
    w.u64(s.round);
    for (std::int64_t v : s.busy_ns) w.i64(v);
    for (std::int64_t v : s.wait_ns) w.i64(v);
  }
}

bool read_shard_profile_binary(std::istream& in, ShardProfileData* data,
                               std::string* error) {
  binio::Reader r(in, error);
  ShardProfileData out;
  if (!r.header(kMagic, kVersion, &out.algorithm, &out.n)) return false;
  out.shards = r.u32();
  out.rounds = r.u64();
  out.dropped_samples = r.u64();
  if (!r.ok("header")) return false;
  if (out.shards == 0 || out.shards > kMaxShards) {
    return r.fail("implausible shard count");
  }
  for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
    for (std::uint32_t s = 0; s < out.shards; ++s) {
      const ShardPhaseTotals t{r.i64(), r.i64(), r.u64()};  // in file order
      if (!r.ok("totals")) return false;
      if (t.busy_ns < 0 || t.busy_ns >= kMaxShardNs || t.wait_ns < 0 ||
          t.wait_ns >= kMaxShardNs) {
        return r.fail("shard time out of range");
      }
      out.totals[p].push_back(t);
    }
  }
  const std::uint64_t sample_count = r.u64();
  if (!r.ok("header")) return false;
  const std::size_t lanes = kShardPhaseCount * out.shards;
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    ShardRoundSample s;
    const std::uint64_t round = r.u64();  // a short read leaves 0
    if (round > std::numeric_limits<Round>::max()) {
      return r.fail("sample round out of range");
    }
    s.round = static_cast<Round>(round);
    for (std::vector<std::int64_t>* lane : {&s.busy_ns, &s.wait_ns}) {
      for (std::size_t l = 0; l < lanes; ++l) {
        lane->push_back(r.i64());
        if (!r.ok("sample")) return false;
      }
    }
    out.samples.push_back(std::move(s));
  }
  *data = std::move(out);
  return true;
}

std::string describe_shard_profile(const ShardProfileData& data) {
  std::string out;
  out += "shard profile: ";
  out += data.algorithm.empty() ? "(unnamed run)" : data.algorithm;
  out += ", n=" + std::to_string(data.n);
  out += ", shards=" + std::to_string(data.shards);
  out += ", rounds=" + std::to_string(data.rounds);
  out += "\n\n";

  // Per-phase table: total busy, per-shard utilization bars, imbalance.
  for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
    const ShardPhase phase = static_cast<ShardPhase>(p);
    const auto& row = data.totals[p];
    std::int64_t busy = 0;
    std::int64_t wait = 0;
    std::int64_t max_busy = 0;
    std::uint64_t rounds = 0;
    for (const ShardPhaseTotals& t : row) {
      busy += t.busy_ns;
      wait += t.wait_ns;
      max_busy = std::max(max_busy, t.busy_ns);
      rounds = std::max(rounds, t.rounds);
    }
    out += "phase ";
    out += shard_phase_name(phase);
    if (rounds == 0) {
      out += ": (never ran)\n";
      continue;
    }
    out += shard_phase_parallel(phase) ? " (parallel)" : " (serial)";
    out += ": busy " + format_ms(busy);
    if (shard_phase_parallel(phase)) {
      out += ", barrier wait " + format_ms(wait);
      out += ", imbalance ";
      append_ratio(&out, shard_imbalance(data, phase));
      out += "x\n";
      // One utilization bar per shard, scaled to the busiest lane.
      for (std::uint32_t s = 0; s < data.shards && s < row.size(); ++s) {
        const ShardPhaseTotals& t = row[s];
        out += "  shard " + std::to_string(s) + "  ";
        const int width =
            max_busy > 0
                ? static_cast<int>((t.busy_ns * 40 + max_busy - 1) / max_busy)
                : 0;
        for (int b = 0; b < 40; ++b) out += b < width ? '#' : '.';
        out += "  " + format_ms(t.busy_ns);
        out += " busy, " + format_ms(t.wait_ns) + " wait\n";
      }
    } else {
      out += "\n";
    }
  }

  out += "\nbarrier_wait_share ";
  append_ratio(&out, barrier_wait_share(data));
  out += " (fraction of parallel shard-time spent blocked at the join)\n";
  out += "straggler: shard " + std::to_string(straggler_shard(data));
  out += " (largest total busy time across parallel phases)\n";
  if (data.dropped_samples > 0) {
    out += "per-round samples: ring kept last " +
           std::to_string(data.samples.size()) + " rounds, dropped " +
           std::to_string(data.dropped_samples) + " older rounds\n";
  }
  return out;
}

}  // namespace renaming::obs
