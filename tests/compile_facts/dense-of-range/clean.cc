// R7 dense of_range, clean twin: protocol code fingerprints the identities
// it holds, in O(ones).
#include <cstdint>
#include <span>

#include "hashing/fingerprint.h"

namespace renaming::byzantine {

std::uint64_t segment_fingerprint(const hashing::SetFingerprint& fp,
                                  std::span<const std::uint64_t> ids) {
  return fp.of_ids(ids);
}

}  // namespace renaming::byzantine
