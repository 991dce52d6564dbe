// The one JSON string escaper shared by every writer that emits JSON:
// metrics and Perfetto exports, the journal and provenance JSONL, the
// heartbeat header and the bench harnesses. A run's algorithm name can be
// read back from a binary artifact of arbitrary bytes, so quotes,
// backslashes and every control character are escaped — never emitted raw.
#pragma once

#include <string>

namespace renaming::obs {

inline std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (c < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace renaming::obs
