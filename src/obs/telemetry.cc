#include "obs/telemetry.h"

#include <chrono>

#include "sim/wire_schema.h"

namespace renaming::obs {

std::int64_t now_ns() {
  // Sole sanctioned clock read in src/ (see the header's determinism
  // contract): durations feed telemetry output only, never protocol state,
  // traces or RunStats.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now()  // lint:allow(nondeterminism)
                 .time_since_epoch())
      .count();
}

Telemetry::Telemetry()
    : messages_(&registry_.counter("messages")),
      bits_(&registry_.counter("bits")),
      rounds_(&registry_.counter("rounds")),
      crashes_(&registry_.counter("crashes")),
      spoof_attempts_(&registry_.counter("spoof_attempts")),
      active_senders_(&registry_.gauge("active_senders")),
      message_bits_(&registry_.histogram("message_bits")),
      inbox_occupancy_(&registry_.histogram("inbox_occupancy")),
      round_wall_ns_(&registry_.histogram("round_wall_ns")) {
  for (const sim::wire::WireSchema& row : sim::wire::kWireSchemas) {
    kind_phase_[sim::wire::raw(row.kind)] =
        static_cast<std::uint8_t>(row.phase);
  }
}

void Telemetry::fold_shards() {
  shards_.fold([&](unsigned, ShardSlot& slot) {
    spans_.insert(spans_.end(), slot.spans.begin(), slot.spans.end());
    slot.spans.clear();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      phases_[p].wall_ns += slot.wall_ns[p];
    }
    slot.wall_ns.fill(0);
    if (slot.inbox_occupancy.count() != 0) {
      inbox_occupancy_->merge(slot.inbox_occupancy);
      slot.inbox_occupancy = LogHistogram();
    }
  });
}

void Telemetry::end_run(Round last_round) {
  run_wall_ns_ = now_ns() - run_begin_ns_;
  // Close every open span at the round after the last executed one, so a
  // span's [begin, end) interval covers its final round.
  for (NodeIndex v = 0; v < node_phase_.size(); ++v) {
    const OpenPhase& open = node_phase_[v];
    if (open.phase != PhaseId::kUnattributed) {
      spans_.push_back({v, open.phase, open.since, last_round + 1});
    }
  }
  node_phase_.clear();
  shards_.bind(nullptr);
}

}  // namespace renaming::obs
