// namespace_chain: the introduction's motivation, end to end. "The size of
// the nodes' namespace can affect the performance of many distributed
// algorithms" — so rename first, then run your protocol on the small
// namespace and pocket the savings.
//
// The downstream protocol here is a deliberately simple one whose cost is
// namespace-bound: k rounds of all-to-all leader-election gossip, where
// every message carries a node identity (log-of-namespace bits each). We
// run it twice — once over the original 64-bit-ish identities in [5n^2],
// once over the renamed identities in [n] — and print the measured bit
// savings, plus what the renaming itself cost.
//
//   $ ./build/examples/namespace_chain
#include <cstdio>
#include <memory>

#include "byzantine/byz_renaming.h"
#include "common/math.h"
#include "sim/engine.h"
#include "test_support.h"

namespace {

using namespace renaming;

/// k rounds of all-to-all "highest identity wins" gossip; message size is
/// determined by the namespace the identities live in.
class GossipNode final : public sim::Node {
 public:
  GossipNode(OriginalId id, std::uint64_t namespace_size, Round rounds)
      : best_(id),
        bits_(test_support::raw_wire_bits(ceil_log2(namespace_size))),
        rounds_(rounds) {}

  void send(Round, sim::Outbox& out) override {
    out.broadcast(sim::make_message(/*kind=*/70, bits_, best_));
  }
  void receive(Round round, sim::InboxView inbox) override {
    for (const sim::Message& m : inbox) best_ = std::max(best_, m.w[0]);
    executed_ = round;
  }
  bool done() const override { return executed_ >= rounds_; }
  std::uint64_t best() const { return best_; }

 private:
  std::uint64_t best_;
  sim::WireBits bits_;
  Round rounds_;
  Round executed_ = 0;
};

sim::RunStats run_gossip(const std::vector<std::uint64_t>& ids,
                         std::uint64_t namespace_size, Round rounds) {
  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (std::uint64_t id : ids) {
    nodes.push_back(std::make_unique<GossipNode>(id, namespace_size, rounds));
  }
  sim::Engine engine(std::move(nodes));
  return engine.run(rounds);
}

}  // namespace

int main() {
  const NodeIndex n = 200;
  const std::uint64_t N = 5ull * n * n;
  const Round gossip_rounds = 16;
  const auto cfg = SystemConfig::random(n, N, /*seed=*/321);

  // Step 1: downstream protocol over the ORIGINAL namespace [N].
  const auto before = run_gossip(
      std::vector<std::uint64_t>(cfg.ids.begin(), cfg.ids.end()), N,
      gossip_rounds);

  // Step 2: rename into [n] (order-preserving, so identity comparisons in
  // the downstream protocol still mean the same thing).
  byzantine::ByzParams params;
  params.pool_constant = 3.0;
  params.shared_seed = 99;
  const auto renaming_run = byzantine::run_byz_renaming(cfg, params);
  if (!renaming_run.report.ok(true)) {
    std::printf("renaming failed -- aborting\n");
    return 1;
  }
  std::vector<std::uint64_t> renamed;
  renamed.reserve(n);
  for (const NodeOutcome& o : renaming_run.outcomes) {
    renamed.push_back(*o.new_id);
  }

  // Step 3: the same downstream protocol over the renamed namespace [n].
  const auto after = run_gossip(renamed, n, gossip_rounds);

  std::printf("namespace chain: n = %u, original namespace N = %llu\n\n", n,
              static_cast<unsigned long long>(N));
  std::printf("downstream gossip (%u all-to-all rounds):\n", gossip_rounds);
  std::printf("  over [N]:  %llu bits  (%u bits/message)\n",
              static_cast<unsigned long long>(before.total_bits),
              before.max_message_bits);
  std::printf("  over [n]:  %llu bits  (%u bits/message)\n",
              static_cast<unsigned long long>(after.total_bits),
              after.max_message_bits);
  std::printf("  per-run saving: %.1f%%\n\n",
              100.0 * (1.0 - static_cast<double>(after.total_bits) /
                                 static_cast<double>(before.total_bits)));
  std::printf("one-time renaming cost: %llu bits in %u rounds\n",
              static_cast<unsigned long long>(renaming_run.stats.total_bits),
              renaming_run.stats.rounds);
  const double breakeven =
      static_cast<double>(renaming_run.stats.total_bits) /
      static_cast<double>(before.total_bits - after.total_bits);
  std::printf("breaks even after ~%.1f gossip executions; every identity-\n"
              "bearing protocol run after that is pure savings.\n", breakeven);
  return 0;
}
