#include "byzantine/identity_list.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "hashing/mersenne61.h"

namespace renaming::byzantine {

IdentityList::IdentityList(std::uint64_t namespace_size,
                           const hashing::SharedRandomness& beacon,
                           std::size_t bucket_capacity)
    : namespace_size_(namespace_size),
      hash_(beacon),
      bucket_capacity_(bucket_capacity) {
  RENAMING_CHECK(bucket_capacity_ >= 2, "bucket capacity too small to split");
}

std::size_t IdentityList::bucket_for(std::uint64_t bound) const {
  std::size_t lo = 0;
  std::size_t hi = buckets_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (buckets_[mid].ids.back() < bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void IdentityList::split_bucket(std::size_t b) {
  Bucket& full = buckets_[b];
  const std::size_t half = full.ids.size() / 2;
  Bucket upper;
  upper.ids.assign(full.ids.begin() + static_cast<std::ptrdiff_t>(half),
                   full.ids.end());
  for (std::uint64_t id : upper.ids) {
    upper.fingerprint = hashing::m61_add(upper.fingerprint,
                                         hash_.coefficient(id));
  }
  full.ids.resize(half);
  // Invertibility of the m61 group: the lower half's aggregate is the
  // difference, no rescan of its ids needed.
  full.fingerprint = hashing::m61_sub(full.fingerprint, upper.fingerprint);
  buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                  std::move(upper));
}

void IdentityList::assign_sorted(std::span<const std::uint64_t> ids) {
  buckets_.clear();
  buckets_.reserve((ids.size() + bucket_capacity_ - 1) / bucket_capacity_);
  std::uint64_t prev = 0;
  for (std::size_t at = 0; at < ids.size(); at += bucket_capacity_) {
    Bucket& leaf = buckets_.emplace_back();
    leaf.ids.assign(ids.begin() + static_cast<std::ptrdiff_t>(at),
                    ids.begin() + static_cast<std::ptrdiff_t>(std::min(
                                      ids.size(), at + bucket_capacity_)));
    for (std::uint64_t id : leaf.ids) {
      RENAMING_CHECK(id >= 1 && id <= namespace_size_,
                     "identity outside the namespace");
      RENAMING_CHECK(id > prev, "bulk-loaded ids must ascend strictly");
      prev = id;
      leaf.fingerprint = hashing::m61_add(leaf.fingerprint,
                                          hash_.coefficient(id));
    }
  }
  size_ = ids.size();
}

void IdentityList::insert(std::uint64_t id) {
  RENAMING_CHECK(id >= 1 && id <= namespace_size_,
                 "identity outside the namespace");
  if (buckets_.empty()) {
    Bucket first;
    first.ids.push_back(id);
    first.fingerprint = hash_.coefficient(id);
    buckets_.push_back(std::move(first));
    size_ = 1;
    return;
  }
  std::size_t b = bucket_for(id);
  if (b == buckets_.size()) b = buckets_.size() - 1;  // append into last leaf
  Bucket& bucket = buckets_[b];
  const auto it = std::lower_bound(bucket.ids.begin(), bucket.ids.end(), id);
  if (it != bucket.ids.end() && *it == id) return;
  bucket.ids.insert(it, id);
  bucket.fingerprint = hashing::m61_add(bucket.fingerprint,
                                        hash_.coefficient(id));
  ++size_;
  if (bucket.ids.size() > bucket_capacity_) split_bucket(b);
}

void IdentityList::set(std::uint64_t id, bool present) {
  RENAMING_CHECK(id >= 1 && id <= namespace_size_,
                 "identity outside the namespace");
  if (present) {
    insert(id);
    return;
  }
  const std::size_t b = bucket_for(id);
  if (b == buckets_.size()) return;
  Bucket& bucket = buckets_[b];
  const auto it = std::lower_bound(bucket.ids.begin(), bucket.ids.end(), id);
  if (it == bucket.ids.end() || *it != id) return;
  bucket.ids.erase(it);
  bucket.fingerprint = hashing::m61_sub(bucket.fingerprint,
                                        hash_.coefficient(id));
  --size_;
  if (bucket.ids.empty()) {
    buckets_.erase(buckets_.begin() + static_cast<std::ptrdiff_t>(b));
  }
}

SegmentSummary IdentityList::summarize(const Interval& j) const {
  RENAMING_CHECK(j.lo >= 1 && j.hi <= namespace_size_,
                 "segment outside the namespace");
  SegmentSummary s;
  for (std::size_t b = bucket_for(j.lo); b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    if (bucket.ids.front() > j.hi) break;
    if (bucket.ids.front() >= j.lo && bucket.ids.back() <= j.hi) {
      // Leaf fully inside the segment: take the aggregate wholesale.
      s.fingerprint = hashing::m61_add(s.fingerprint, bucket.fingerprint);
      s.count += bucket.ids.size();
      continue;
    }
    // Boundary leaf: sum the covered portion only.
    const auto lo_it =
        std::lower_bound(bucket.ids.begin(), bucket.ids.end(), j.lo);
    const auto hi_it = std::upper_bound(lo_it, bucket.ids.end(), j.hi);
    for (auto it = lo_it; it != hi_it; ++it) {
      s.fingerprint = hashing::m61_add(s.fingerprint, hash_.coefficient(*it));
    }
    s.count += static_cast<std::uint64_t>(hi_it - lo_it);
  }
  return s;
}

std::uint64_t IdentityList::rank(std::uint64_t id) const {
  std::uint64_t r = 0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.ids.back() < id) {
      r += bucket.ids.size();
      continue;
    }
    r += static_cast<std::uint64_t>(
        std::lower_bound(bucket.ids.begin(), bucket.ids.end(), id) -
        bucket.ids.begin());
    break;
  }
  return r;
}

std::vector<std::uint64_t> IdentityList::ids_in(const Interval& j) const {
  std::vector<std::uint64_t> out;
  for_each_id_in(j, [&](std::uint64_t id) { out.push_back(id); });
  return out;
}

std::vector<std::uint64_t> IdentityList::to_vector() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (const Bucket& bucket : buckets_) {
    out.insert(out.end(), bucket.ids.begin(), bucket.ids.end());
  }
  return out;
}

}  // namespace renaming::byzantine
