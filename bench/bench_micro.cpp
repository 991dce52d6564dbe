// Experiment M1 — google-benchmark microbenchmarks of the hot primitives:
// segment fingerprints and ranks on the sparse identity list, dense BitVec
// range popcounts, Mersenne-61 ops, engine round overhead, the cost of
// queuing one unicast, and a full PhaseKing instance. These bound the
// per-round simulation cost that the macro harnesses (T1, E1-E5) amortise.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "byzantine/identity_list.h"
#include "common/bitvec.h"
#include "common/prng.h"
#include "consensus/phase_king.h"
#include "crash/crash_renaming.h"
#include "hashing/fingerprint.h"
#include "hashing/mersenne61.h"
#include "hashing/shared_random.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "sim/wire_schema.h"
#include "test_support.h"

namespace renaming {
namespace {

void BM_Mersenne61Mul(benchmark::State& state) {
  std::uint64_t a = 0x123456789ABCDEFULL % hashing::kMersenne61;
  std::uint64_t b = 0xFEDCBA987654321ULL % hashing::kMersenne61;
  for (auto _ : state) {
    a = hashing::m61_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Mersenne61Mul);

void BM_BeaconCoefficient(benchmark::State& state) {
  hashing::SharedRandomness beacon(1);
  hashing::SetFingerprint fp(beacon);
  std::uint64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.coefficient(i++));
  }
}
BENCHMARK(BM_BeaconCoefficient);

void BM_IdentityListSummarize(benchmark::State& state) {
  const std::uint64_t kN = 1 << 22;
  hashing::SharedRandomness beacon(2);
  byzantine::IdentityList list(kN, beacon);
  Xoshiro256 rng(3);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    list.insert(1 + rng.below(kN));
  }
  std::uint64_t lo = 1;
  for (auto _ : state) {
    lo = 1 + (lo * 2654435761u) % (kN / 2);
    benchmark::DoNotOptimize(list.summarize(Interval(lo, lo + kN / 4)));
  }
}
BENCHMARK(BM_IdentityListSummarize)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_IdentityListMixedOps(benchmark::State& state) {
  // The protocol's actual access pattern: interleaved inserts, removals and
  // summaries. The bucketed list keeps this O(log k + bucket) per op; the
  // old sorted-vector + prefix table rebuilt an O(k) table after every
  // mutation batch.
  const std::uint64_t kN = 1 << 22;
  hashing::SharedRandomness beacon(6);
  byzantine::IdentityList list(kN, beacon);
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> present;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const std::uint64_t id = 1 + rng.below(kN);
    list.insert(id);
    present.push_back(id);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const std::uint64_t id = 1 + rng.below(kN);
    list.insert(id);
    list.set(present[k % present.size()], false);
    present[k % present.size()] = id;
    ++k;
    const std::uint64_t lo = 1 + rng.below(kN / 2);
    benchmark::DoNotOptimize(list.summarize(Interval(lo, lo + kN / 4)));
  }
}
BENCHMARK(BM_IdentityListMixedOps)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_IdentityListBulkLoad(benchmark::State& state) {
  // A committee member turning k round-2 reports (arrival order) into its
  // list: insert:0 is the protocol's one sort plus assign_sorted, insert:1
  // is k insert() calls. Both draw coefficients from the beacon, as in a
  // run, so the gap is the container's.
  const std::uint64_t kN = 1 << 22;
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool by_insert = state.range(1) != 0;
  hashing::SharedRandomness beacon(10);
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> arrivals(k);
  for (std::uint64_t& id : arrivals) id = 1 + rng.below(kN);
  std::vector<std::uint64_t> sorted;
  for (auto _ : state) {
    byzantine::IdentityList list(kN, beacon);
    if (by_insert) {
      for (std::uint64_t id : arrivals) list.insert(id);
    } else {
      sorted = arrivals;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      list.assign_sorted(sorted);
    }
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_IdentityListBulkLoad)
    ->ArgNames({"ids", "insert"})
    ->ArgsProduct({{1024, 16384, 262144}, {0, 1}});

void BM_RabinOfRangeSparse(benchmark::State& state) {
  // Sparse Rabin evaluation: cost scales with the number of set bits (the
  // jump table hops zero runs), not the range width.
  const std::uint64_t kN = 1 << 20;
  hashing::SharedRandomness beacon(8);
  hashing::RabinFingerprint rabin(beacon);
  BitVec bits(kN);
  Xoshiro256 rng(9);
  for (std::int64_t i = 0; i < state.range(0); ++i) bits.set(rng.below(kN));
  for (auto _ : state) {
    benchmark::DoNotOptimize(test_support::of_range(rabin, bits, 0, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * bits.count());
}
BENCHMARK(BM_RabinOfRangeSparse)->Arg(64)->Arg(4096)->Arg(262144);

void BM_BitVecCountRange(benchmark::State& state) {
  const std::uint64_t kN = 1 << 20;
  BitVec bits(kN);
  Xoshiro256 rng(4);
  for (int i = 0; i < 100000; ++i) bits.set(rng.below(kN));
  std::uint64_t lo = 0;
  for (auto _ : state) {
    lo = (lo * 2654435761u) % (kN / 2);
    benchmark::DoNotOptimize(bits.count_range(lo, lo + kN / 4));
  }
}
BENCHMARK(BM_BitVecCountRange);

void BM_EngineRoundAllToAll(benchmark::State& state) {
  // Cost of one synchronous all-to-all round at n nodes, the dominant term
  // of every baseline simulation.
  const NodeIndex n = static_cast<NodeIndex>(state.range(0));
  class Bcast final : public sim::Node {
   public:
    void send(Round, sim::Outbox& out) override {
      out.broadcast(sim::make_message(1, test_support::raw_wire_bits(32),
                                      std::uint64_t{7}));
    }
    void receive(Round, sim::InboxView) override {}
    bool done() const override { return false; }
  };
  for (auto _ : state) {
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (NodeIndex v = 0; v < n; ++v) nodes.push_back(std::make_unique<Bcast>());
    sim::Engine engine(std::move(nodes));
    benchmark::DoNotOptimize(engine.run(1).total_messages);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_EngineRoundAllToAll)->Arg(64)->Arg(256)->Arg(1024);

void BM_OutboxUnicast(benchmark::State& state) {
  // Per-message build cost of a committee's reply loop: 8192 distinct
  // RESPONSE unicasts (none coalesce) queued either as
  // out.send(d, wire::make_message(...)) (arg 0) or built in their queue
  // slot by wire::send (arg 1).
  constexpr NodeIndex kReplies = 8192;
  const bool in_place = state.range(0) != 0;
  const sim::wire::WireContext ctx{kReplies, 5ull * kReplies * kReplies};
  const auto kind = sim::wire::Kind::kResponse;
  sim::Outbox out(0, kReplies);
  for (auto _ : state) {
    out.clear();
    for (NodeIndex d = 0; d < kReplies; ++d) {
      const std::uint64_t id = 7 * std::uint64_t{d} + 1;
      if (in_place) {
        sim::wire::send(out, d, kind, ctx, id, 1, kReplies, 3, 0);
      } else {
        out.send(d, sim::wire::make_message(kind, ctx, id, 1, kReplies, 3, 0));
      }
    }
    benchmark::DoNotOptimize(out.entries().data());
  }
  state.SetItemsProcessed(state.iterations() * kReplies);
}
BENCHMARK(BM_OutboxUnicast)->Arg(0)->Arg(1);

void BM_CrashRenamingEndToEnd(benchmark::State& state) {
  const NodeIndex n = static_cast<NodeIndex>(state.range(0));
  crash::CrashParams params;
  params.election_constant = 1.0;
  const auto cfg =
      SystemConfig::random(n, static_cast<std::uint64_t>(n) * n * 5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crash::run_crash_renaming(cfg, params).stats.total_messages);
  }
}
BENCHMARK(BM_CrashRenamingEndToEnd)->Arg(128)->Arg(512);

void BM_PhaseKingInstance(benchmark::State& state) {
  // One full binary consensus among m committee members.
  const NodeIndex m = static_cast<NodeIndex>(state.range(0));
  std::vector<consensus::Member> members;
  for (NodeIndex i = 0; i < m; ++i) members.push_back({100 + i * 3ull, i});
  const consensus::CommitteeView view(members);

  class Host final : public sim::Node {
   public:
    Host(const consensus::CommitteeView& v, std::size_t idx, bool input)
        : king_(v, idx, 0, sim::wire::Kind::kConsensus,
                {v.size(), 5ull * v.size() * v.size()}, input) {}
    void send(Round r, sim::Outbox& out) override {
      if (!fin_) king_.send(r - 1, out);
    }
    void receive(Round r, sim::InboxView inbox) override {
      if (!fin_) fin_ = king_.receive(r - 1, inbox);
    }
    bool done() const override { return fin_; }

   private:
    consensus::PhaseKing king_;
    bool fin_ = false;
  };

  for (auto _ : state) {
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (NodeIndex i = 0; i < m; ++i) {
      nodes.push_back(std::make_unique<Host>(view, i, i % 2 == 0));
    }
    sim::Engine engine(std::move(nodes));
    benchmark::DoNotOptimize(engine.run(1000).rounds);
  }
}
BENCHMARK(BM_PhaseKingInstance)->Arg(7)->Arg(16)->Arg(31);

}  // namespace
}  // namespace renaming

BENCHMARK_MAIN();
