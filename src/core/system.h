// System configuration: the instance every renaming protocol runs on.
//
// Definition 1.1: n nodes, each with a unique original identity in
// [N] = {1, ..., N}; every node knows its own identity and n. The factory
// below samples distinct original identities uniformly from [N], which is
// the hard case for the algorithms (dense/sorted namespaces are easier for
// the divide-and-conquer fingerprint consensus).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "common/types.h"

namespace renaming {

struct SystemConfig {
  NodeIndex n = 0;               ///< Number of participating nodes.
  std::uint64_t namespace_size = 0;  ///< N, the original namespace size.
  std::vector<OriginalId> ids;   ///< ids[v] = original identity of node v.
  std::uint64_t seed = 0;        ///< Master seed for all randomness.

  /// Samples a config with distinct uniform identities from [N].
  static SystemConfig random(NodeIndex n, std::uint64_t namespace_size,
                             std::uint64_t seed) {
    RENAMING_CHECK(namespace_size >= n, "namespace must fit all nodes");
    SystemConfig cfg;
    cfg.n = n;
    cfg.namespace_size = namespace_size;
    cfg.seed = seed;
    cfg.ids.reserve(n);
    Xoshiro256 rng(seed ^ 0xABCDEF0123456789ULL);
    std::unordered_set<OriginalId> used;
    used.reserve(n * 2);
    while (cfg.ids.size() < n) {
      const OriginalId id = 1 + rng.below(namespace_size);
      if (used.insert(id).second) cfg.ids.push_back(id);
    }
    return cfg;
  }

  /// A config whose identities are the worst case for divide-and-conquer:
  /// clustered into a few dense runs so segment disagreements concentrate.
  static SystemConfig clustered(NodeIndex n, std::uint64_t namespace_size,
                                std::uint64_t seed, std::uint32_t clusters) {
    RENAMING_CHECK(namespace_size >= n && clusters >= 1);
    SystemConfig cfg;
    cfg.n = n;
    cfg.namespace_size = namespace_size;
    cfg.seed = seed;
    Xoshiro256 rng(seed ^ 0x5DEECE66DULL);
    std::unordered_set<OriginalId> used;
    const NodeIndex per = (n + clusters - 1) / clusters;
    while (cfg.ids.size() < n) {
      const OriginalId base =
          1 + rng.below(namespace_size > per ? namespace_size - per : 1);
      for (NodeIndex k = 0; k < per && cfg.ids.size() < n; ++k) {
        const OriginalId id = base + k;
        if (id <= namespace_size && used.insert(id).second) {
          cfg.ids.push_back(id);
        }
      }
    }
    return cfg;
  }
};

/// From this many nodes on a run counts as large: the CLI and the
/// million-node bench then default to memory-bounded observers (capped
/// trace, journal and telemetry rings, provenance horizon) and to exact
/// closed-form accounting for the quadratic baselines
/// (docs/PERFORMANCE.md §10).
inline constexpr NodeIndex kLargeSystemNodes = 8192;

/// `f` < n faulty node indices spread evenly over [1, n), strictly
/// ascending: the i-th is i * n / (f + 1) + 1, in 64-bit arithmetic so
/// i * n cannot wrap.
inline std::vector<NodeIndex> spread_faulty(NodeIndex n, NodeIndex f) {
  RENAMING_CHECK(f < n, "cannot spread f >= n faulty nodes");
  std::vector<NodeIndex> faulty;
  faulty.reserve(f);
  for (std::uint64_t i = 0; i < f; ++i) {
    faulty.push_back(static_cast<NodeIndex>(i * n / (f + 1ULL) + 1));
  }
  return faulty;
}

/// mask[v] is true iff v is listed in `faulty`; every listed index must be
/// < n and listed once.
inline std::vector<bool> faulty_mask(NodeIndex n,
                                     const std::vector<NodeIndex>& faulty) {
  std::vector<bool> mask(n, false);
  for (const NodeIndex v : faulty) {
    RENAMING_CHECK(v < n, "faulty node index is not below n");
    RENAMING_CHECK(!mask[v], "faulty node index listed twice");
    mask[v] = true;
  }
  return mask;
}

}  // namespace renaming
