// A strict RFC 8259 checker for the JSON and JSONL the exporters write: no
// tree is built, strings must be valid UTF-8 (§8.1) without raw control
// bytes, and `nan`, `inf`, bare keys and trailing commas are rejected.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace renaming::json_check {

/// True iff `s` is valid UTF-8, decoded by bit pattern: each sequence has
/// the continuation bytes its lead announces and encodes a scalar value
/// (no overlong form, no surrogate, nothing past U+10FFFF).
inline bool valid_utf8(std::string_view s) {
  for (std::size_t i = 0; i < s.size();) {
    const auto lead = static_cast<unsigned char>(s[i]);
    std::size_t extra = 0;
    std::uint32_t cp = lead;
    std::uint32_t min_cp = 0;
    if ((lead & 0xE0) == 0xC0) {
      extra = 1, cp = lead & 0x1F, min_cp = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      extra = 2, cp = lead & 0x0F, min_cp = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      extra = 3, cp = lead & 0x07, min_cp = 0x10000;
    } else if (lead >= 0x80) {
      return false;  // a stray continuation byte or an invalid lead
    }
    if (i + extra >= s.size()) return false;  // truncated
    for (std::size_t k = 1; k <= extra; ++k) {
      const auto next = static_cast<unsigned char>(s[i + k]);
      if ((next & 0xC0) != 0x80) return false;
      cp = cp << 6 | (next & 0x3F);
    }
    if (cp < min_cp || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += extra + 1;
  }
  return true;
}

/// Recursive descent over the RFC 8259 grammar; `i` is where it stopped.
struct Parser {
  std::string_view s;
  std::size_t i = 0;

  bool at(std::string_view set) const {
    return i < s.size() && set.find(s[i]) != std::string_view::npos;
  }
  bool eat(char c) { return at({&c, 1}) && ++i > 0; }
  std::size_t run(std::string_view set) {
    const std::size_t from = i;
    while (at(set)) ++i;
    return i - from;
  }
  void ws() { run(" \t\n\r"); }

  bool value() {
    if (eat('{')) return items('}', /*object=*/true);
    if (eat('[')) return items(']', /*object=*/false);
    if (at("\"")) return string();
    for (std::string_view w : {"true", "false", "null"}) {
      if (s.substr(i, w.size()) != w) continue;
      i += w.size();
      return true;
    }
    return number();
  }
  // Comma-separated values, each keyed by a string and ':' in an object.
  bool items(char close, bool object) {
    ws();
    if (eat(close)) return true;
    do {
      ws();
      if (object) {
        if (!string()) return false;
        ws();
        if (!eat(':')) return false;
        ws();
      }
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat(close);
  }
  bool string() {
    if (!eat('"')) return false;
    const std::size_t from = i;
    while (i < s.size() && s[i] != '"') {
      const auto c = static_cast<unsigned char>(s[i++]);
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (eat('u')) {
        if (run("0123456789abcdefABCDEF") < 4) return false;
      } else if (at("\"\\/bfnrt")) {
        ++i;
      } else {
        return false;
      }
    }
    return eat('"') && valid_utf8(s.substr(from, i - 1 - from));
  }
  // -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  bool number() {
    constexpr std::string_view kDigits = "0123456789";
    eat('-');
    if (!eat('0') && run(kDigits) == 0) return false;
    if (eat('.') && run(kDigits) == 0) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (run(kDigits) == 0) return false;
    }
    return true;
  }
};

/// `text` is exactly one JSON value with optional surrounding whitespace.
inline ::testing::AssertionResult IsJson(std::string_view text) {
  Parser parser{text};
  parser.ws();
  const bool value = parser.value();
  parser.ws();
  if (value && parser.i == text.size()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "invalid JSON at byte " << parser.i << ": "
         << text.substr(parser.i < 40 ? 0 : parser.i - 40, 80);
}

/// `text` is a non-empty JSONL stream: every line ends in '\n' and is one
/// JSON value.
inline ::testing::AssertionResult IsJsonLines(std::string_view text) {
  if (text.empty() || text.back() != '\n') {
    return ::testing::AssertionFailure() << "empty or unterminated stream";
  }
  for (std::size_t line = 1, pos = 0; pos < text.size(); ++line) {
    const std::size_t end = text.find('\n', pos);
    if (auto ok = IsJson(text.substr(pos, end - pos)); !ok) {
      return ok << " (line " << line << ")";
    }
    pos = end + 1;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace renaming::json_check
