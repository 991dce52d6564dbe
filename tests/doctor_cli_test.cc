// Exit-code contract of the renaming_doctor CLI on imperfect inputs.
//
// tools/renaming_doctor.cpp documents diff as 0 = identical, 1 = diverged,
// 2 = incomparable or I/O error. The library-level verdicts are covered by
// obs_journal_test on full journals; this suite pins the BINARY's exit
// codes on the inputs a diagnosis session actually meets: truncated files
// (a run killed mid-write), ring-mode journals (bounded --journal-rounds
// recordings whose windows may or may not overlap) and journals whose
// round numbers a corruption rewrote. The binary path is
// injected at configure time (RENAMING_DOCTOR_BIN, tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "obs/journal.h"

namespace renaming {
namespace {

/// One seeded crash run with a (possibly ring-bounded) journal attached.
obs::JournalData crash_journal(std::uint64_t seed, std::size_t capacity = 0) {
  const NodeIndex n = 48;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, seed);
  crash::CrashParams params;
  params.election_constant = 3.0;
  auto adversary = std::make_unique<crash::CommitteeHunter>(
      12, crash::CommitteeHunter::Mode::kMidResponse, seed, 0.5);
  obs::Journal journal(capacity);
  crash::run_crash_renaming(
      cfg, params, std::move(adversary), {.journal = &journal});
  return journal.data();
}

std::string write_journal(const std::string& name,
                          const obs::JournalData& data) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  obs::write_journal_binary(out, data);
  return path;
}

std::string write_bytes(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

int doctor_diff(const std::string& a, const std::string& b) {
  const std::string cmd = std::string(RENAMING_DOCTOR_BIN) + " diff " + a +
                          " " + b + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status));
  return WEXITSTATUS(status);
}

TEST(DoctorCli, DiffIdenticalFullJournalsExitsZero) {
  const auto path = write_journal("dr_full_a.bin", crash_journal(41));
  EXPECT_EQ(doctor_diff(path, path), 0);
}

TEST(DoctorCli, DiffDivergedJournalsExitsOne) {
  const auto a = write_journal("dr_seed41.bin", crash_journal(41));
  const auto b = write_journal("dr_seed42.bin", crash_journal(42));
  EXPECT_EQ(doctor_diff(a, b), 1);
}

TEST(DoctorCli, DiffTruncatedJournalExitsTwo) {
  const auto full = crash_journal(41);
  std::ostringstream buf;
  obs::write_journal_binary(buf, full);
  const std::string bytes = buf.str();
  const auto good = write_journal("dr_good.bin", full);
  const auto cut =
      write_bytes("dr_truncated.bin", bytes.substr(0, bytes.size() / 2));
  // Either argument order: a load failure is 2, never a crash and never a
  // bogus "identical" verdict.
  EXPECT_EQ(doctor_diff(cut, good), 2);
  EXPECT_EQ(doctor_diff(good, cut), 2);
}

// The doctor finds a round's record by its offset from the first record,
// so the reader must refuse journals whose rounds are not consecutive.
// Each case rewrites one record's round field of a valid journal.
TEST(DoctorCli, DiffRejectsJournalWithAFarLastRound) {
  const auto full = crash_journal(41);
  obs::JournalData bad = full;
  bad.records.back().round = 0xFFFFFFF0u;  // was: 2^32 digests allocated
  const auto good = write_journal("dr_far_good.bin", full);
  const auto corrupt = write_journal("dr_far_last.bin", bad);
  EXPECT_EQ(doctor_diff(corrupt, good), 2);
  EXPECT_EQ(doctor_diff(good, corrupt), 2);
}

TEST(DoctorCli, DiffRejectsJournalWithAZeroFirstRound) {
  const auto full = crash_journal(41);
  ASSERT_GT(full.records.front().round, 0u);
  obs::JournalData bad = full;
  bad.records.front().round = 0;  // was: "divergent at round 1"
  const auto good = write_journal("dr_zero_good.bin", full);
  const auto corrupt = write_journal("dr_zero_first.bin", bad);
  EXPECT_EQ(doctor_diff(corrupt, good), 2);
  EXPECT_EQ(doctor_diff(good, corrupt), 2);
}

TEST(DoctorCli, DiffRingJournalAgainstFullUsesTheOverlap) {
  // A 5-record ring holds exactly the tail of the same run's full journal
  // (obs_journal_test pins this), so the overlapping window compares
  // identical: exit 0 even though the ring is incomplete.
  const auto full = write_journal("dr_ring_full.bin", crash_journal(41));
  const auto ring = write_journal("dr_ring.bin", crash_journal(41, 5));
  EXPECT_EQ(doctor_diff(ring, full), 0);
  EXPECT_EQ(doctor_diff(full, ring), 0);
}

TEST(DoctorCli, DiffDisjointRingWindowsExitsTwo) {
  // Two ring windows of the same run that do not intersect: the head of
  // the recording vs its tail. No overlapping round — incomparable.
  const auto data = crash_journal(41);
  ASSERT_GT(data.records.size(), 10u);
  obs::JournalData head = data;
  head.records.assign(data.records.begin(), data.records.begin() + 5);
  obs::JournalData tail = data;
  tail.records.assign(data.records.end() - 5, data.records.end());
  tail.dropped_rounds = data.records.size() - 5;
  const auto a = write_journal("dr_head.bin", head);
  const auto b = write_journal("dr_tail.bin", tail);
  EXPECT_EQ(doctor_diff(a, b), 2);
}

}  // namespace
}  // namespace renaming
