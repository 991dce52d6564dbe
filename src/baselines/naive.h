// Naive collect-and-sort renaming: one round, every node broadcasts its
// identity and takes the rank of its own identity among everything it
// received. The fault-free floor of Table 1's cost space (n^2 messages,
// 1 round) — and a negative control: a single crash mid-broadcast makes
// views diverge and produces duplicate names, which the tests demonstrate.
#pragma once

#include <memory>
#include <vector>

#include "core/system.h"
#include "core/verifier.h"
#include "sim/adversary.h"
#include "sim/node.h"
#include "sim/observers.h"
#include "sim/stats.h"

namespace renaming::baselines {

struct NaiveRunResult {
  sim::RunStats stats;
  std::vector<NodeOutcome> outcomes;
  VerifyReport report;
};

/// `observers.telemetry` attributes all traffic to the baseline-exchange
/// phase.
NaiveRunResult run_naive_renaming(
    const SystemConfig& cfg,
    std::unique_ptr<sim::CrashAdversary> adversary = nullptr,
    sim::Observers observers = {});

}  // namespace renaming::baselines
