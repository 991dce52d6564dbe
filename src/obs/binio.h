// The one binary codec behind the RNMJ, RNSP and RNPV obs artifacts:
// fixed-width little-endian integers, no padding, and one shared header
// (magic, u32 version, u32 name length, name bytes, u64 n). The layouts
// and reader invariants are in docs/OBSERVABILITY.md §10. The Reader's
// failure state is sticky (a failed read returns 0, and so does every
// later one), so a parser reads a group of fields and checks once. Readers
// never size an allocation from a count in the file; they grow one parsed
// element at a time. Lint rule R15 keeps byte-level stream I/O in src/obs/
// inside this header.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

namespace renaming::obs::binio {

inline constexpr std::uint32_t kMaxNameBytes = 4096;
inline constexpr std::uint64_t kMaxNodes = 0xffffffffull;  // NodeIndex count

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v, 1); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }

  void header(const char (&magic)[4], std::uint32_t version,
              const std::string& name, std::uint64_t n) {
    out_.write(magic, 4);
    u32(version);
    u32(static_cast<std::uint32_t>(name.size()));
    out_.write(name.data(), static_cast<std::streamsize>(name.size()));
    u64(n);
  }

 private:
  void put(std::uint64_t v, int bytes) {
    char buf[8];
    for (int i = 0; i < bytes; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_.write(buf, bytes);
  }

  std::ostream& out_;
};

class Reader {
 public:
  /// `error` (may be null) receives the message of the failure.
  Reader(std::istream& in, std::string* error) : in_(in), error_(error) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(get(8)); }

  /// True while every read so far was satisfied; otherwise records
  /// "truncated <what>" and returns false.
  bool ok(const char* what) {
    return ok_ || fail(std::string("truncated ") + what);
  }

  /// Records `what` as the error and returns false.
  bool fail(const std::string& what) {
    if (error_ != nullptr) *error_ = what;
    ok_ = false;
    return false;
  }

  /// Reads and checks the shared header; on success fills `name` and `n`.
  bool header(const char (&magic)[4], std::uint32_t version,
              std::string* name, std::uint64_t* n) {
    const std::string format(magic, 4);
    std::string got(4, '\0');
    in_.read(got.data(), 4);
    if (in_.gcount() != 4 || got != format) {
      return fail("not a " + format + " file (bad magic)");
    }
    const std::uint32_t got_version = u32();
    const std::uint32_t len = u32();
    if (!ok("header")) return false;
    if (got_version != version) {
      return fail("unsupported " + format + " version " +
                  std::to_string(got_version));
    }
    if (len > kMaxNameBytes) return fail("implausible algorithm name length");
    name->resize(len);
    in_.read(name->data(), len);
    if (in_.gcount() != static_cast<std::streamsize>(len)) ok_ = false;
    *n = u64();
    return ok("header") && (*n <= kMaxNodes || fail("implausible system size"));
  }

 private:
  std::uint64_t get(int bytes) {
    unsigned char buf[8];
    if (ok_) in_.read(reinterpret_cast<char*>(buf), bytes);
    if (!ok_ || in_.gcount() != bytes) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= std::uint64_t{buf[i]} << (8 * i);
    return v;
  }

  std::istream& in_;
  std::string* error_;
  bool ok_ = true;
};

}  // namespace renaming::obs::binio
