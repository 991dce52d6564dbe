// Accounting edge cases for sim/stats.h.
//
// The theorems are statements about exactly these counters, so the
// accounting layer gets its own tests: note_message misuse must abort (not
// silently write out of bounds), max_message_bits must track the high-water
// mark, and the CountingTrace observer must reconcile with RunStats even
// when spoofed traffic is charged but never delivered.
#include <gtest/gtest.h>

#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "test_support.h"

namespace renaming {
namespace {

using test_support::raw_wire_bits;

TEST(StatsAccountingDeathTest, NoteMessageBeforeAnyRoundAborts) {
  // per_round.back() on an empty vector was undefined behaviour; now it is
  // a RENAMING_CHECK abort in every build type, including RelWithDebInfo.
  sim::RunStats stats;
  ASSERT_TRUE(stats.per_round.empty());
  EXPECT_DEATH(stats.note_message(raw_wire_bits(8)),
               "note_message before any round began");
}

TEST(StatsAccountingDeathTest, ZeroBitMessageAborts) {
  sim::RunStats stats;
  stats.per_round.push_back({});
  EXPECT_DEATH(stats.note_message(raw_wire_bits(0)), "wire size");
}

TEST(StatsAccounting, NoteMessageUpdatesTotalsAndCurrentRound) {
  sim::RunStats stats;
  stats.per_round.push_back({});
  stats.note_message(raw_wire_bits(16));
  stats.note_message(raw_wire_bits(48));
  stats.per_round.push_back({});
  stats.note_message(raw_wire_bits(32));
  EXPECT_EQ(stats.total_messages, 3u);
  EXPECT_EQ(stats.total_bits, 96u);
  EXPECT_EQ(stats.per_round[0].messages, 2u);
  EXPECT_EQ(stats.per_round[0].bits, 64u);
  EXPECT_EQ(stats.per_round[1].messages, 1u);
  EXPECT_EQ(stats.per_round[1].bits, 32u);
}

TEST(StatsAccounting, MaxMessageBitsTracksHighWaterMark) {
  sim::RunStats stats;
  stats.per_round.push_back({});
  stats.note_message(raw_wire_bits(8));
  EXPECT_EQ(stats.max_message_bits, 8u);
  // A quadratic-baseline-sized blob, then smaller traffic, which must not
  // lower the mark.
  stats.note_message(raw_wire_bits(1u << 30));
  stats.note_message(raw_wire_bits(8));
  EXPECT_EQ(stats.max_message_bits, 1u << 30);
  EXPECT_EQ(stats.total_bits, 16u + (1u << 30));
}

TEST(StatsAccounting, BitTotalsUse64BitAccumulators) {
  // 8 messages of 2^30 bits overflow a 32-bit total; the accounting types
  // must carry them exactly (the protocol lint enforces this statically).
  sim::RunStats stats;
  stats.per_round.push_back({});
  for (int i = 0; i < 8; ++i) stats.note_message(raw_wire_bits(1u << 30));
  EXPECT_EQ(stats.total_bits, 8ull << 30);
  EXPECT_EQ(stats.per_round[0].bits, 8ull << 30);
}

TEST(StatsAccounting, BulkNoteMessagesEqualsRepeatedNoteMessage) {
  // note_messages(count, bits) is documented as exactly equivalent to
  // `count` note_message(bits) calls; pin it ledger-by-ledger, including
  // the per-round vectors and the high-water mark.
  sim::RunStats bulk, repeated;
  const std::uint64_t counts[] = {3, 1, 0, 7};
  const std::uint32_t sizes[] = {16, 1u << 20, 8, 48};
  for (int r = 0; r < 2; ++r) {
    bulk.per_round.push_back({});
    repeated.per_round.push_back({});
    for (std::size_t i = 0; i < 4; ++i) {
      bulk.note_messages(counts[i], raw_wire_bits(sizes[i]));
      for (std::uint64_t k = 0; k < counts[i]; ++k) {
        repeated.note_message(raw_wire_bits(sizes[i]));
      }
    }
  }
  EXPECT_EQ(bulk, repeated);
  EXPECT_EQ(bulk.max_message_bits, 1u << 20);
}

TEST(StatsAccounting, BulkNoteMessagesWithZeroCountIsANoOp) {
  // Zero note_message calls touch nothing: not the totals, not the
  // high-water mark — and not the preconditions, so a zero-count charge is
  // legal even before any round began and even with bits == 0 (the engine's
  // broadcast fast path may face an empty recipient set).
  sim::RunStats stats;
  stats.note_messages(0, raw_wire_bits(64));  // empty per_round: must not abort
  // bits unchecked when nothing is charged
  stats.note_messages(0, raw_wire_bits(0));
  EXPECT_EQ(stats, sim::RunStats{});
  stats.per_round.push_back({});
  stats.note_messages(0, raw_wire_bits(1u << 30));
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_bits, 0u);
  EXPECT_EQ(stats.max_message_bits, 0u);
  EXPECT_EQ(stats.per_round[0], sim::RoundStats{});
}

TEST(StatsAccounting, CountingTraceReconcilesWithRunStatsUnderSpoofing) {
  // A spoofer charges traffic that is never delivered; the independent
  // CountingTrace observer and the engine's RunStats must still agree on
  // every ledger (sent, bits, crashes) — double-entry accounting.
  const NodeIndex n = 36;
  const auto cfg = SystemConfig::random(n, 5ull * n * n, 11);
  byzantine::ByzParams params;
  params.pool_constant = 4.0;
  params.shared_seed = 5;
  sim::CountingTrace trace;
  const auto result = byzantine::run_byz_renaming(
      cfg, params, {2, 9}, &byzantine::Spoofer::make, 0, {.trace = &trace});
  ASSERT_TRUE(result.report.ok(true));
  EXPECT_GT(result.stats.spoofs_rejected, 0u);

  EXPECT_EQ(trace.total(), result.stats.total_messages);
  std::uint64_t sent = 0, bits = 0, undelivered = 0;
  for (const auto& [kind, count] : trace.by_kind()) {
    sent += count;
    bits += trace.bits(kind);
    undelivered += trace.undelivered(kind);
  }
  EXPECT_EQ(sent, result.stats.total_messages);
  EXPECT_EQ(bits, result.stats.total_bits);
  // Every spoofed message is counted as sent-but-undelivered by the trace.
  EXPECT_GE(undelivered, result.stats.spoofs_rejected);
}

}  // namespace
}  // namespace renaming
