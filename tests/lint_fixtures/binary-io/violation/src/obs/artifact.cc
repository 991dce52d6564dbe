// Planted R15 violation: an artifact codec with its own little-endian
// helpers instead of obs/binio.h. Both the helper definitions and the raw
// stream byte calls inside them must be flagged.
#include <cstdint>
#include <istream>
#include <ostream>

void put_u32(std::ostream& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool get_u32(std::istream& in, std::uint32_t* v) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const int ch = in.get();
    if (ch < 0) return false;
    value |= static_cast<std::uint32_t>(ch & 0xff) << (8 * i);
  }
  *v = value;
  return true;
}

void write_record(std::ostream& out, std::uint32_t round) {
  put_u32(out, round);
}
