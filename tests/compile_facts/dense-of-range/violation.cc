// R7 dense of_range, planted violation: protocol code scanning a dense
// BitVec over the identity space. The dense reference evaluation lives in
// tests/support/test_support.h, off src/'s include path, so the member
// call does not compile.
#include <cstdint>

#include "common/bitvec.h"
#include "hashing/fingerprint.h"

namespace renaming::byzantine {

std::uint64_t segment_fingerprint(const hashing::SetFingerprint& fp,
                                  const BitVec& ids) {
  return fp.of_range(ids, 0, ids.size() - 1);
}

}  // namespace renaming::byzantine
