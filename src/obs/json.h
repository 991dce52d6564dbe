// The one JSON string escaper shared by every writer that emits JSON:
// metrics and Perfetto exports, the journal and provenance JSONL, the
// heartbeat header and the bench harnesses. A run's algorithm name can be
// read back from a binary artifact of arbitrary bytes, so quotes,
// backslashes and every control character are escaped — never emitted raw
// — and so is every byte that is not part of a well-formed UTF-8
// sequence: the output is always valid UTF-8, hence valid JSON.
#pragma once

#include <cstddef>
#include <string>

namespace renaming::obs {

namespace detail {

/// Length (2-4) of the well-formed UTF-8 multibyte sequence starting at
/// s[i], or 0 if there is none. Well-formed follows Unicode Table 3-7: no
/// overlong forms, no surrogates, nothing past U+10FFFF.
inline std::size_t utf8_sequence_length(const std::string& s, std::size_t i) {
  const auto byte = [&](std::size_t k) -> unsigned {
    return k < s.size() ? static_cast<unsigned char>(s[k]) : 0;
  };
  const unsigned lead = byte(i);
  std::size_t length = 0;
  unsigned second_lo = 0x80;  // the second byte's range narrows for the
  unsigned second_hi = 0xBF;  // leads that would allow the excluded forms
  if (lead >= 0xC2 && lead <= 0xDF) {
    length = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    length = 3;
    if (lead == 0xE0) second_lo = 0xA0;  // overlong
    if (lead == 0xED) second_hi = 0x9F;  // surrogates
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    length = 4;
    if (lead == 0xF0) second_lo = 0x90;  // overlong
    if (lead == 0xF4) second_hi = 0x8F;  // past U+10FFFF
  } else {
    return 0;
  }
  const unsigned second = byte(i + 1);
  if (second < second_lo || second > second_hi) return 0;
  for (std::size_t k = 2; k < length; ++k) {
    const unsigned next = byte(i + k);
    if (next < 0x80 || next > 0xBF) return 0;
  }
  return length;
}

}  // namespace detail

inline std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  std::size_t length = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    const auto c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (c >= 0x80 &&
               (length = detail::utf8_sequence_length(s, i)) > 0) {
      out.append(s, i, length);  // well-formed UTF-8 passes through whole
      i += length - 1;
    } else if (c < 0x20 || c >= 0x80) {
      // A control byte, or one byte of a malformed UTF-8 sequence.
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
