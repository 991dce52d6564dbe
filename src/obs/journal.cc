#include "obs/journal.h"

#include <istream>
#include <limits>
#include <ostream>

#include "obs/binio.h"
#include "obs/json.h"
#include "sim/wire_schema.h"

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
// RNMJ v1: the shared obs/binio.h header, then fixed-width fields in the
// exact order of the struct definitions (docs/OBSERVABILITY.md "Binary
// artifacts").

constexpr char kMagic[4] = {'R', 'N', 'M', 'J'};
constexpr std::uint32_t kVersion = 1;

void write_journal_binary(std::ostream& out, const JournalData& data) {
  binio::Writer w(out);
  w.header(kMagic, kVersion, data.algorithm, data.n);
  w.u64(data.f);
  w.u64(data.total_messages);
  w.u64(data.total_bits);
  w.u64(data.rounds);
  w.u64(data.crashes);
  w.u64(data.spoofs_rejected);
  w.u32(data.max_message_bits);
  w.u64(data.dropped_rounds);
  w.u64(data.records.size());
  for (const JournalRound& r : data.records) {
    w.u64(r.round);
    w.u64(r.fingerprint);
    w.u64(r.messages);
    w.u64(r.bits);
    w.u32(r.max_message_bits);
    w.u32(r.active_senders);
    w.u32(static_cast<std::uint32_t>(r.kinds.size()));
    for (const JournalKindCount& k : r.kinds) {
      w.u16(k.kind);
      w.u64(k.messages);
      w.u64(k.bits);
    }
    w.u32(static_cast<std::uint32_t>(r.events.size()));
    for (const JournalEvent& e : r.events) {
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u32(e.node);
      w.u16(e.msg_kind);
    }
  }
}

bool read_journal_binary(std::istream& in, JournalData* data,
                         std::string* error) {
  binio::Reader r(in, error);
  JournalData out;
  if (!r.header(kMagic, kVersion, &out.algorithm, &out.n)) return false;
  out.f = r.u64();
  out.total_messages = r.u64();
  out.total_bits = r.u64();
  out.rounds = r.u64();
  out.crashes = r.u64();
  out.spoofs_rejected = r.u64();
  out.max_message_bits = r.u32();
  out.dropped_rounds = r.u64();
  const std::uint64_t record_count = r.u64();
  if (!r.ok("header")) return false;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    JournalRound rec;
    const std::uint64_t round = r.u64();
    rec.fingerprint = r.u64();
    rec.messages = r.u64();
    rec.bits = r.u64();
    rec.max_message_bits = r.u32();
    rec.active_senders = r.u32();
    const std::uint32_t kind_count = r.u32();
    if (!r.ok("record")) return false;
    // The doctor finds a round's record by its offset from the first one.
    if (round > std::numeric_limits<Round>::max() ||
        (i > 0 && round != out.records.back().round + std::uint64_t{1})) {
      return r.fail("record rounds out of range or not consecutive");
    }
    rec.round = static_cast<Round>(round);
    // Braced initializers evaluate left to right: fields in file order.
    for (std::uint32_t k = 0; k < kind_count; ++k) {
      rec.kinds.push_back({r.u16(), r.u64(), r.u64()});
      if (!r.ok("kind table")) return false;
    }
    const std::uint32_t event_count = r.u32();
    if (!r.ok("record")) return false;
    for (std::uint32_t e = 0; e < event_count; ++e) {
      const std::uint8_t kind = r.u8();
      if (kind > 1) return r.fail("unknown event kind");
      rec.events.push_back(
          {static_cast<JournalEvent::Kind>(kind), r.u32(), r.u16()});
      if (!r.ok("event table")) return false;
    }
    out.records.push_back(std::move(rec));
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
