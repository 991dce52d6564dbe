// Committee context shared by the consensus sub-protocols.
//
// After the announcement round of the Byzantine-resilient algorithm, every
// correct node holds a committee view: the list of (original id, link)
// pairs that announced membership and passed the shared-randomness pool
// check plus authentication. Lemma 3.5 gives G (all correct members) as a
// subset of every correct view with |B| < c_g/2; the sub-protocols run over
// this list with the classical threshold t = floor((m-1)/3), which the
// assumption 2|B| < |G| guarantees is >= |B| (see DESIGN.md).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/parallel/shard.h"

namespace renaming::consensus {

struct Member {
  OriginalId id = 0;
  NodeIndex link = kNoNode;

  friend bool operator<(const Member& a, const Member& b) {
    return a.id < b.id;
  }
  friend bool operator==(const Member& a, const Member& b) = default;
};

/// A node's view of the committee, ordered by original identity (so the
/// phase-king schedule is identical wherever the views are identical).
class CommitteeView {
 public:
  CommitteeView() : CommitteeView(std::vector<Member>{}) {}
  explicit CommitteeView(std::vector<Member> members)
      : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
    links_.reserve(members_.size());
    for (const Member& m : members_) links_.push_back(m.link);
    // Link lookup table: every inbound committee message resolves its
    // sender through index_of_link, so the per-message cost must not be a
    // search of the member list (docs/PERFORMANCE.md). Open addressing
    // with linear probing over a power-of-two table at most half full, so
    // every probe sequence ends at an empty slot. Sized by m, never by n.
    std::size_t size = 2;
    while (size < 2 * members_.size()) size *= 2;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    table_.assign(size, Slot{});
    for (std::size_t i = 0; i < members_.size(); ++i) {
      std::size_t s = slot_of(members_[i].link);
      while (table_[s].link != kNoNode && table_[s].link != members_[i].link) {
        s = (s + 1) & (size - 1);
      }
      // A link named twice keeps its first (lowest) index.
      if (table_[s].link == kNoNode) {
        table_[s] = {members_[i].link, static_cast<std::uint32_t>(i + 1)};
      }
    }
  }

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const Member& member(std::size_t i) const { return members_[i]; }
  const std::vector<Member>& members() const { return members_; }
  /// Member links in view (id) order — the committee multicast list.
  const std::vector<NodeIndex>& links() const { return links_; }

  /// Classical Byzantine tolerance for this view size.
  std::uint32_t max_tolerated() const {
    return members_.empty()
               ? 0
               : static_cast<std::uint32_t>((members_.size() - 1) / 3);
  }

  /// Index of the member with this link, or npos. O(1) expected.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of_link(NodeIndex link) const {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t s = slot_of(link);; s = (s + 1) & mask) {
      const Slot& slot = table_[s];
      // An empty slot ends the probe; its pos of 0 answers npos.
      if (slot.link == link || slot.link == kNoNode) {
        return static_cast<std::size_t>(slot.pos) - 1;
      }
    }
  }

  bool contains_link(NodeIndex link) const {
    return index_of_link(link) != npos;
  }

 private:
  /// One table slot: a member's link and its index + 1. An empty slot
  /// holds kNoNode, which no link reaches, and 0.
  struct Slot {
    NodeIndex link = kNoNode;
    std::uint32_t pos = 0;
  };

  /// Fibonacci hashing: the top bits of link * 2^64/phi, which spread even
  /// a run of consecutive links over the table.
  std::size_t slot_of(NodeIndex link) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(link) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<Member> members_;
  /// Member links in view order, for Outbox::multicast.
  std::vector<NodeIndex> links_;
  /// link -> index into members_, power-of-two size >= 2m.
  std::vector<Slot> table_;
  unsigned shift_ = 63;
};

/// Hash-consing pool for committee views (docs/PERFORMANCE.md §10).
///
/// In a correct execution, almost every honest node derives the SAME view
/// from the same announcement round, yet each historically stored a private
/// copy — O(n · m) Members plus three side tables per run, the dominant
/// per-node memory at n = 2^20. intern() normalizes the member list exactly
/// like the CommitteeView constructor, then returns a shared immutable view,
/// so k distinct views cost O(k · m) regardless of n. Byzantine strategies
/// that fabricate per-node views simply intern distinct lists and share
/// nothing — correctness never depends on sharing.
///
/// Nodes intern inside receive(), which the engine may run on K shards at
/// once, so the pool keeps one map per shard (sim/parallel/shard.h): a
/// caller touches only its shard's, and a view costs at most K copies.
class ViewInterner {
 public:
  /// Follows the engine's fan-outs (null detaches). Unbound, one pool.
  void bind_shards(const sim::parallel::ShardMap* map) { pools_.bind(map); }

  /// The shared view of `members`, from the pool of the shard running
  /// `caller`'s callback.
  std::shared_ptr<const CommitteeView> intern(NodeIndex caller,
                                              std::vector<Member> members) {
    // Normalize first so logically identical lists hash identically; the
    // CommitteeView constructor re-running the sort is a no-op.
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    std::uint64_t h = 0x9e3779b97f4a7c15ULL + members.size();
    for (const Member& m : members) {
      h ^= (m.id * 0xff51afd7ed558ccdULL) + (h << 6) + (h >> 2);
      h ^= (static_cast<std::uint64_t>(m.link) * 0xc4ceb9fe1a85ec53ULL) +
           (h << 6) + (h >> 2);
    }
    Views& bucket = pools_.at(caller)[h];
    for (const auto& candidate : bucket) {
      if (candidate->members() == members) return candidate;
    }
    bucket.push_back(std::make_shared<const CommitteeView>(std::move(members)));
    return bucket.back();
  }

 private:
  // Ordered map (R4): iteration order never feeds observers, but keeping
  // the repo-wide determinism rule is cheaper than arguing the exception.
  using Views = std::vector<std::shared_ptr<const CommitteeView>>;
  using Pool = std::map<std::uint64_t, Views>;
  sim::parallel::ShardSlots<Pool> pools_;
};

/// The shared empty view every node starts from before its announcement
/// round resolves (one allocation per process, not one per node).
inline const std::shared_ptr<const CommitteeView>& empty_committee_view() {
  static const std::shared_ptr<const CommitteeView> kEmpty =
      std::make_shared<const CommitteeView>();
  return kEmpty;
}

}  // namespace renaming::consensus
