// Seeded mutation suite over the three binary artifact formats: RNMJ
// journals, RNSP shard profiles and RNPV provenance recordings, all read
// through obs/binio.h.
//
// Every reader must survive arbitrary bytes. A truncated file is always
// rejected with a message. Any other mutant is either rejected or parses
// into data that every consumer handles: the doctor's diagnoses, the shard
// report, and a re-write that reproduces the bytes it parsed. No mutant may
// abort, trip ASan/UBSan (the asan-ubsan preset runs this file) or make a
// reader and its consumers hold more heap than a constant times its size.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <sstream>
#include <string>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/doctor.h"
#include "obs/journal.h"
#include "obs/provenance.h"
#include "obs/shard_profile.h"
#include "sim/observers.h"

// Live heap bytes, counted by the replaceable global allocation functions
// so each mutant's peak can be bounded by its size.
namespace {
std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += malloc_usable_size(p);
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace renaming {
namespace {

constexpr int kSplices = 256;

/// Heap a mutant may hold beyond the bytes it came from: parsed structs are
/// a few times larger than their encoding, and diagnosis text grows with
/// what it describes.
std::size_t memory_bound(std::size_t input) { return 64 * input + (1 << 20); }

template <typename Data>
std::string encode(void (*write)(std::ostream&, const Data&),
                   const Data& data) {
  std::ostringstream out;
  write(out, data);
  return out.str();
}

/// Readers consume exactly what the writers emit, so re-writing what a
/// mutant parsed must reproduce the bytes it parsed.
template <typename Data>
void expect_rewrite_is_prefix(void (*write)(std::ostream&, const Data&),
                              const Data& data, const std::string& mutant) {
  const std::string again = encode(write, data);
  EXPECT_EQ(mutant.compare(0, again.size(), again), 0)
      << "re-written bytes differ from the bytes parsed";
}

/// Runs `use` (parse, then consume) on every strict prefix of `bytes`, on
/// `bytes` with each byte xor-ed with 0xFF, and on kSplices seeded
/// splices. Returns how many mutants parsed.
template <typename Use>
int mutate(const std::string& bytes, Use use) {
  int parsed_count = 0;
  const auto run = [&](const std::string& mutant, std::string* error) {
    const std::size_t base = g_live_bytes;
    g_peak_bytes = base;
    const bool parsed = use(mutant, error);
    EXPECT_LE(g_peak_bytes - base, memory_bound(mutant.size()));
    EXPECT_TRUE(parsed || !error->empty()) << "rejected without a message";
    parsed_count += parsed ? 1 : 0;
    return parsed;
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string error;
    EXPECT_FALSE(run(bytes.substr(0, cut), &error))
        << "a " << cut << "-byte prefix parsed";
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xff);
    std::string error;
    const bool parsed = run(mutant, &error);
    if (i < 4) {
      EXPECT_FALSE(parsed) << "a corrupt magic parsed";
      EXPECT_NE(error.find("magic"), std::string::npos) << error;
    }
  }
  // Splice: a prefix, then a range copied from anywhere, then a suffix —
  // duplicated, dropped and shifted fields in one mutant.
  std::mt19937_64 rng(0x5eed);
  const auto pick = [&rng](std::size_t hi) {
    return static_cast<std::size_t>(rng() % (hi + 1));
  };
  for (int k = 0; k < kSplices; ++k) {
    const std::size_t cut = pick(bytes.size());
    const std::size_t from = pick(bytes.size());
    const std::size_t len = pick(std::min<std::size_t>(64, bytes.size() - from));
    const std::size_t resume = pick(bytes.size());
    std::string error;
    run(bytes.substr(0, cut) + bytes.substr(from, len) + bytes.substr(resume),
        &error);
  }
  return parsed_count;
}

// --- RNMJ -------------------------------------------------------------------

obs::JournalData crash_journal() {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 41);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      12, crash::CommitteeHunter::Mode::kMidResponse, 41, 0.5);
  obs::Journal journal;
  crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.journal = &journal});
  return journal.data();
}

TEST(ArtifactMutation, JournalReaderSurvivesEveryMutant) {
  const obs::JournalData original = crash_journal();
  const std::string bytes = encode(obs::write_journal_binary, original);
  const int parsed = mutate(bytes, [&](const std::string& mutant,
                                       std::string* error) {
    std::istringstream in(mutant);
    obs::JournalData data;
    if (!obs::read_journal_binary(in, &data, error)) return false;
    obs::diagnose_divergence(data, original);
    obs::diagnose_divergence(original, data);
    obs::kinds_from_journal(data);
    obs::BudgetParams params;
    params.algorithm = data.algorithm;
    params.n = data.n;
    params.f = data.f;
    params.namespace_size = 5 * data.n * data.n;
    obs::diagnose_audit(params, data);
    expect_rewrite_is_prefix(obs::write_journal_binary, data, mutant);
    return true;
  });
  EXPECT_GT(parsed, 0) << "no mutant reached the consumers";
}

// --- RNSP -------------------------------------------------------------------

obs::ShardProfileData two_shard_profile() {
  obs::ShardProfile profile;
  sim::Observers{.plan = {.profile = &profile}}.begin("crash", 48, 0);
  profile.begin_run(48, 2);
  for (Round r = 1; r <= 6; ++r) {
    profile.on_round_begin(r);
    for (unsigned s = 0; s < 2; ++s) {
      profile.note_shard(obs::ShardPhase::kSend, s, 1000 * (r + s), 10 * s);
      profile.note_shard(obs::ShardPhase::kReceive, s, 700 * (s + 1), s);
    }
    profile.note_serial(obs::ShardPhase::kDeliver, 55 * r);
    profile.note_serial(obs::ShardPhase::kMerge, 5);
    profile.on_round_end(r);
  }
  profile.end_run(6);
  return profile.data();
}

TEST(ArtifactMutation, ShardProfileReaderSurvivesEveryMutant) {
  const std::string bytes =
      encode(obs::write_shard_profile_binary, two_shard_profile());
  const int parsed = mutate(bytes, [](const std::string& mutant,
                                      std::string* error) {
    std::istringstream in(mutant);
    obs::ShardProfileData data;
    if (!obs::read_shard_profile_binary(in, &data, error)) return false;
    obs::describe_shard_profile(data);
    expect_rewrite_is_prefix(obs::write_shard_profile_binary, data, mutant);
    return true;
  });
  EXPECT_GT(parsed, 0) << "no mutant reached the consumers";
}

// --- RNPV -------------------------------------------------------------------

/// Byzantine run with planted Spoofers, watching every eighth node so the
/// recording stays a few kilobytes.
obs::ProvenanceData byz_provenance() {
  const NodeIndex n = 40;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 21);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 21;
  obs::ProvenanceOptions opts;
  opts.sample = 8;
  obs::Provenance prov(opts);
  byzantine::run_byz_renaming(
      cfg, params, {1, 7, 23}, &byzantine::Spoofer::make, 0,
      {.provenance = &prov});
  return prov.data();
}

TEST(ArtifactMutation, ProvenanceReaderSurvivesEveryMutant) {
  const std::string bytes =
      encode(obs::write_provenance_binary, byz_provenance());
  const int parsed = mutate(bytes, [](const std::string& mutant,
                                      std::string* error) {
    std::istringstream in(mutant);
    obs::ProvenanceData data;
    if (!obs::read_provenance_binary(in, &data, error)) return false;
    obs::diagnose_blame(data);
    obs::diagnose_why(data, 0);
    if (!data.events.empty()) obs::diagnose_why(data, data.events.back().node);
    if (!data.faulty.empty()) obs::diagnose_why(data, data.faulty.front());
    expect_rewrite_is_prefix(obs::write_provenance_binary, data, mutant);
    return true;
  });
  EXPECT_GT(parsed, 0) << "no mutant reached the consumers";
}

}  // namespace
}  // namespace renaming
