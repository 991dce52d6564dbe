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
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

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
  CommitteeView() = default;
  explicit CommitteeView(std::vector<Member> members)
      : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
    // Link lookup table: every inbound committee message resolves its
    // sender through index_of_link, so the per-message cost must not be a
    // linear scan of the member list (docs/PERFORMANCE.md).
    by_link_.reserve(members_.size());
    links_.reserve(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      by_link_.emplace_back(members_[i].link, i);
      links_.push_back(members_[i].link);
    }
    std::sort(by_link_.begin(), by_link_.end());
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

  /// Index of the member with this link, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of_link(NodeIndex link) const {
    const auto it = std::lower_bound(
        by_link_.begin(), by_link_.end(), link,
        [](const auto& entry, NodeIndex l) { return entry.first < l; });
    if (it == by_link_.end() || it->first != link) return npos;
    return it->second;
  }

  bool contains_link(NodeIndex link) const {
    return index_of_link(link) != npos;
  }

 private:
  std::vector<Member> members_;
  /// (link, index into members_) sorted by link.
  std::vector<std::pair<NodeIndex, std::uint32_t>> by_link_;
  /// Member links in view order, for Outbox::multicast.
  std::vector<NodeIndex> links_;
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
/// Not thread-safe: it is the one piece of cross-node shared mutable state
/// in a Byzantine run, so callers only intern from engine-serial sections
/// (the run_* entry points skip the interner when a shard plan is active).
class ViewInterner {
 public:
  std::shared_ptr<const CommitteeView> intern(std::vector<Member> members) {
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
    for (const auto& candidate : pool_[h]) {
      if (candidate->members() == members) return candidate;
    }
    auto view = std::make_shared<const CommitteeView>(std::move(members));
    pool_[h].push_back(view);
    return pool_[h].back();
  }

  /// Number of distinct views interned (the memory claim: stays O(1) per
  /// honest execution, not O(n)).
  std::size_t distinct() const {
    std::size_t total = 0;
    for (const auto& [h, views] : pool_) total += views.size();
    return total;
  }

 private:
  // Ordered map (R4): iteration order never feeds observers, but keeping
  // the repo-wide determinism rule is cheaper than arguing the exception.
  std::map<std::uint64_t, std::vector<std::shared_ptr<const CommitteeView>>>
      pool_;
};

/// The shared empty view every node starts from before its announcement
/// round resolves (one allocation per process, not one per node).
inline const std::shared_ptr<const CommitteeView>& empty_committee_view() {
  static const std::shared_ptr<const CommitteeView> kEmpty =
      std::make_shared<const CommitteeView>();
  return kEmpty;
}

}  // namespace renaming::consensus
