#include "obs/journal.h"

#include <istream>
#include <ostream>

#include "obs/json.h"
#include "sim/message_names.h"

namespace renaming::obs {

JournalKindCount& Journal::kind_slot(sim::MsgKind kind) {
  // A round touches a handful of kinds at most; a sorted vector with a
  // linear scan beats any map here and keeps the export order canonical.
  std::size_t i = 0;
  while (i < open_.kinds.size() && open_.kinds[i].kind < kind) ++i;
  if (i == open_.kinds.size() || open_.kinds[i].kind != kind) {
    open_.kinds.insert(open_.kinds.begin() + static_cast<std::ptrdiff_t>(i),
                       JournalKindCount{kind, 0, 0});
  }
  return open_.kinds[i];
}

void Journal::mix_entry(const sim::Message& m, std::uint64_t dest_code,
                        std::uint64_t copies) {
  // Everything observable about the logical entry feeds the fingerprint;
  // the destination descriptor distinguishes a broadcast from the
  // equivalent unicast fan-out (they are different executions even when
  // the copies coincide, and the multicast list fold follows separately).
  // The entry's words go through the cheap WordFold and the polynomial
  // digest absorbs one field element per entry: the chain keeps the
  // cross-entry order sensitivity, the fold keeps the per-word cost at a
  // single 64-bit multiply (<2% hot-path budget, docs/PERFORMANCE.md §8).
  hashing::WordFold fold;
  fold.mix(dest_code);
  fold.mix(copies);
  fold.mix((static_cast<std::uint64_t>(m.kind) << 32) | m.bits);
  fold.mix((static_cast<std::uint64_t>(m.sender) << 32) | m.claimed_sender);
  fold.mix(m.nwords);
  for (std::uint8_t i = 0; i < m.nwords; ++i) fold.mix(m.w[i]);
  if (m.blob != nullptr) {
    fold.mix(m.blob->size() + 1);  // +1 distinguishes empty from absent
    for (std::uint64_t w : *m.blob) fold.mix(w);
  } else {
    fold.mix(0);
  }
  digest_.mix_digest(fold.value());

  JournalKindCount& slot = kind_slot(m.kind);
  const std::uint64_t total = static_cast<std::uint64_t>(m.bits) * copies;
  slot.messages += copies;
  slot.bits += total;
  open_.messages += copies;
  open_.bits += total;
  if (m.bits > open_.max_message_bits) open_.max_message_bits = m.bits;
  if (m.spoofed()) {
    open_.events.push_back(
        {JournalEvent::Kind::kSpoofRejected, m.sender, m.kind});
    data_.spoofs_rejected += copies;
  }
}

void Journal::on_round_end(Round round) {
  open_.round = round;
  open_.fingerprint = digest_.value();
  data_.total_messages += open_.messages;
  data_.total_bits += open_.bits;
  if (open_.max_message_bits > data_.max_message_bits) {
    data_.max_message_bits = open_.max_message_bits;
  }
  data_.records.push_back(std::move(open_));
  if (capacity_ > 0 && data_.records.size() > capacity_) {
    data_.records.erase(data_.records.begin());
    ++data_.dropped_rounds;
  }
  open_ = JournalRound{};
}

// --- binary format ----------------------------------------------------------
//
// "RNMJ" magic, u32 version, then fixed-width little-endian fields in the
// exact order of the struct definitions. The writer never emits padding and
// the reader never trusts a length without stream checks, so a truncated or
// corrupted file fails cleanly instead of aborting.

namespace {

constexpr char kMagic[4] = {'R', 'N', 'M', 'J'};
constexpr std::uint32_t kVersion = 1;

void put_bytes(std::ostream& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.put(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::ostream& out, std::uint64_t v) { put_bytes(out, v, 8); }
void put_u32(std::ostream& out, std::uint32_t v) { put_bytes(out, v, 4); }
void put_u16(std::ostream& out, std::uint16_t v) { put_bytes(out, v, 2); }
void put_u8(std::ostream& out, std::uint8_t v) { put_bytes(out, v, 1); }

bool get_bytes(std::istream& in, std::uint64_t* v, int bytes) {
  std::uint64_t out = 0;
  for (int i = 0; i < bytes; ++i) {
    const int ch = in.get();
    if (ch < 0) return false;
    out |= static_cast<std::uint64_t>(ch & 0xff) << (8 * i);
  }
  *v = out;
  return true;
}
bool get_u64(std::istream& in, std::uint64_t* v) {
  return get_bytes(in, v, 8);
}
bool get_u32(std::istream& in, std::uint32_t* v) {
  std::uint64_t tmp = 0;
  if (!get_bytes(in, &tmp, 4)) return false;
  *v = static_cast<std::uint32_t>(tmp);
  return true;
}
bool get_u16(std::istream& in, std::uint16_t* v) {
  std::uint64_t tmp = 0;
  if (!get_bytes(in, &tmp, 2)) return false;
  *v = static_cast<std::uint16_t>(tmp);
  return true;
}
bool get_u8(std::istream& in, std::uint8_t* v) {
  std::uint64_t tmp = 0;
  if (!get_bytes(in, &tmp, 1)) return false;
  *v = static_cast<std::uint8_t>(tmp);
  return true;
}

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void write_journal_binary(std::ostream& out, const JournalData& data) {
  out.write(kMagic, 4);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(data.algorithm.size()));
  out.write(data.algorithm.data(),
            static_cast<std::streamsize>(data.algorithm.size()));
  put_u64(out, data.n);
  put_u64(out, data.f);
  put_u64(out, data.total_messages);
  put_u64(out, data.total_bits);
  put_u64(out, data.rounds);
  put_u64(out, data.crashes);
  put_u64(out, data.spoofs_rejected);
  put_u32(out, data.max_message_bits);
  put_u64(out, data.dropped_rounds);
  put_u64(out, data.records.size());
  for (const JournalRound& r : data.records) {
    put_u64(out, r.round);
    put_u64(out, r.fingerprint);
    put_u64(out, r.messages);
    put_u64(out, r.bits);
    put_u32(out, r.max_message_bits);
    put_u32(out, r.active_senders);
    put_u32(out, static_cast<std::uint32_t>(r.kinds.size()));
    for (const JournalKindCount& k : r.kinds) {
      put_u16(out, k.kind);
      put_u64(out, k.messages);
      put_u64(out, k.bits);
    }
    put_u32(out, static_cast<std::uint32_t>(r.events.size()));
    for (const JournalEvent& e : r.events) {
      put_u8(out, static_cast<std::uint8_t>(e.kind));
      put_u32(out, e.node);
      put_u16(out, e.msg_kind);
    }
  }
}

bool read_journal_binary(std::istream& in, JournalData* data,
                         std::string* error) {
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() != 4 || magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    return fail(error, "not a renaming journal (bad magic)");
  }
  std::uint32_t version = 0;
  if (!get_u32(in, &version)) return fail(error, "truncated header");
  if (version != kVersion) {
    return fail(error, "unsupported journal version");
  }
  JournalData out;
  std::uint32_t algo_len = 0;
  if (!get_u32(in, &algo_len)) return fail(error, "truncated header");
  if (algo_len > 4096) return fail(error, "implausible algorithm name");
  out.algorithm.resize(algo_len);
  in.read(out.algorithm.data(), algo_len);
  if (in.gcount() != static_cast<std::streamsize>(algo_len)) {
    return fail(error, "truncated header");
  }
  std::uint64_t record_count = 0;
  if (!get_u64(in, &out.n) || !get_u64(in, &out.f) ||
      !get_u64(in, &out.total_messages) || !get_u64(in, &out.total_bits) ||
      !get_u64(in, &out.rounds) || !get_u64(in, &out.crashes) ||
      !get_u64(in, &out.spoofs_rejected) ||
      !get_u32(in, &out.max_message_bits) ||
      !get_u64(in, &out.dropped_rounds) || !get_u64(in, &record_count)) {
    return fail(error, "truncated header");
  }
  // Grow incrementally: a corrupt count must not turn into an allocation.
  for (std::uint64_t i = 0; i < record_count; ++i) {
    JournalRound r;
    std::uint64_t round64 = 0;
    std::uint32_t kind_count = 0;
    std::uint32_t event_count = 0;
    if (!get_u64(in, &round64) || !get_u64(in, &r.fingerprint) ||
        !get_u64(in, &r.messages) || !get_u64(in, &r.bits) ||
        !get_u32(in, &r.max_message_bits) ||
        !get_u32(in, &r.active_senders) || !get_u32(in, &kind_count)) {
      return fail(error, "truncated record");
    }
    r.round = static_cast<Round>(round64);
    for (std::uint32_t k = 0; k < kind_count; ++k) {
      JournalKindCount kc;
      if (!get_u16(in, &kc.kind) || !get_u64(in, &kc.messages) ||
          !get_u64(in, &kc.bits)) {
        return fail(error, "truncated kind table");
      }
      r.kinds.push_back(kc);
    }
    if (!get_u32(in, &event_count)) return fail(error, "truncated record");
    for (std::uint32_t e = 0; e < event_count; ++e) {
      std::uint8_t ekind = 0;
      JournalEvent ev;
      if (!get_u8(in, &ekind) || !get_u32(in, &ev.node) ||
          !get_u16(in, &ev.msg_kind)) {
        return fail(error, "truncated event table");
      }
      if (ekind > 1) return fail(error, "unknown event kind");
      ev.kind = static_cast<JournalEvent::Kind>(ekind);
      r.events.push_back(ev);
    }
    out.records.push_back(std::move(r));
  }
  *data = std::move(out);
  return true;
}

void write_journal_jsonl(std::ostream& out, const JournalData& data) {
  out << "{\"schema\":\"renaming-journal-v1\",\"algorithm\":\""
      << json_escape(data.algorithm) << "\",\"n\":" << data.n
      << ",\"f\":" << data.f
      << ",\"total_messages\":" << data.total_messages
      << ",\"total_bits\":" << data.total_bits
      << ",\"rounds\":" << data.rounds << ",\"crashes\":" << data.crashes
      << ",\"spoofs_rejected\":" << data.spoofs_rejected
      << ",\"max_message_bits\":" << data.max_message_bits
      << ",\"dropped_rounds\":" << data.dropped_rounds
      << ",\"records\":" << data.records.size() << "}\n";
  for (const JournalRound& r : data.records) {
    out << "{\"round\":" << r.round << ",\"fingerprint\":" << r.fingerprint
        << ",\"messages\":" << r.messages << ",\"bits\":" << r.bits
        << ",\"max_message_bits\":" << r.max_message_bits
        << ",\"active_senders\":" << r.active_senders << ",\"kinds\":[";
    bool first = true;
    for (const JournalKindCount& k : r.kinds) {
      if (!first) out << ",";
      first = false;
      out << "{\"kind\":" << k.kind << ",\"name\":\""
          << sim::message_name(k.kind) << "\",\"messages\":" << k.messages
          << ",\"bits\":" << k.bits << "}";
    }
    out << "],\"events\":[";
    first = true;
    for (const JournalEvent& e : r.events) {
      if (!first) out << ",";
      first = false;
      if (e.kind == JournalEvent::Kind::kCrash) {
        out << "{\"type\":\"crash\",\"node\":" << e.node << "}";
      } else {
        out << "{\"type\":\"spoof-rejected\",\"node\":" << e.node
            << ",\"kind\":" << e.msg_kind << "}";
      }
    }
    out << "]}\n";
  }
}

}  // namespace renaming::obs
