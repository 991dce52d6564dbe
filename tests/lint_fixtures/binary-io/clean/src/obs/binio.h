// The sanctioned codec: byte-level stream I/O is legal in obs/binio.h, and
// only there.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>

namespace binio {

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.put(static_cast<char>((v >> (8 * i)) & 0xff));
  }

 private:
  std::ostream& out_;
};

inline bool get_u32(std::istream& in, std::uint32_t* v) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const int ch = in.get();
    if (ch < 0) return false;
    value |= static_cast<std::uint32_t>(ch & 0xff) << (8 * i);
  }
  *v = value;
  return true;
}

}  // namespace binio
