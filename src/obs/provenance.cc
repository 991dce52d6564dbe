#include "obs/provenance.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "obs/json.h"
#include "sim/message_names.h"

namespace renaming::obs {

bool ProvEvent::operator==(const ProvEvent& o) const {
  if (id != o.id || round != o.round || node != o.node ||
      subject != o.subject || kind != o.kind || msg_kind != o.msg_kind ||
      a != o.a || b != o.b || causes_dropped != o.causes_dropped ||
      cause_count != o.cause_count) {
    return false;
  }
  for (std::uint8_t i = 0; i < cause_count; ++i) {
    if (!(causes[i] == o.causes[i])) return false;
  }
  return true;
}

Provenance::Provenance(ProvenanceOptions opts) : opts_(std::move(opts)) {
  std::sort(opts_.watch_nodes.begin(), opts_.watch_nodes.end());
  opts_.watch_nodes.erase(
      std::unique(opts_.watch_nodes.begin(), opts_.watch_nodes.end()),
      opts_.watch_nodes.end());
  watch_all_ = opts_.watch_nodes.empty() && opts_.sample == 0;
}

void Provenance::set_run_info(std::string algorithm, std::uint64_t n,
                              std::uint64_t f) {
  algorithm_ = std::move(algorithm);
  n_info_ = n;
  f_info_ = f;
}

void Provenance::begin_run(NodeIndex n) {
  if (active_ && frontier_.size() == n) return;  // already begun this run
  active_ = true;
  rounds_ = 0;
  next_id_ = 0;
  pending_base_ = 0;
  pending_.clear();
  kept_.clear();
  dropped_events_ = 0;
  last_about_.clear();
  faulty_.clear();
  frontier_.assign(n, kNoProvEvent);
  // A stride watch picks ~sample evenly spaced nodes; recomputed here
  // because it needs n.
  stride_ = 0;
  if (opts_.sample > 0 && n > 0) {
    stride_ = static_cast<std::uint32_t>(
        std::max<NodeIndex>(1, n / std::min<NodeIndex>(opts_.sample, n)));
  }
}

void Provenance::end_run(Round rounds) {
  rounds_ = rounds;
  active_ = false;
  while (!pending_.empty()) evict_front();
}

bool Provenance::watched(NodeIndex v) const {
  if (watch_all_) return true;
  if (stride_ > 0 && v % stride_ == 0) return true;
  return std::binary_search(opts_.watch_nodes.begin(),
                            opts_.watch_nodes.end(), v);
}

std::uint64_t Provenance::resolve_cause(NodeIndex sender,
                                        NodeIndex about) const {
  if (sender >= frontier_.size()) return kNoProvEvent;
  const auto it = last_about_.find((static_cast<std::uint64_t>(sender) << 32) |
                                   about);
  if (it != last_about_.end()) return it->second;
  return frontier_[sender];
}

void Provenance::pin_causes(const ProvEvent& ev) {
  // Transitively mark every still-pending cause as kept. Cause ids are
  // strictly smaller than the citing event's id, so the walk is monotone
  // and the explicit stack bounded by the ring size.
  std::vector<std::uint64_t> stack;
  for (std::uint8_t i = 0; i < ev.cause_count; ++i) {
    stack.push_back(ev.causes[i].event);
  }
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    if (id == kNoProvEvent || id < pending_base_) continue;  // gone or kept
    const std::uint64_t off = id - pending_base_;
    if (off >= pending_.size()) continue;
    Pending& p = pending_[off];
    if (p.keep) continue;
    p.keep = true;
    for (std::uint8_t i = 0; i < p.ev.cause_count; ++i) {
      stack.push_back(p.ev.causes[i].event);
    }
  }
}

void Provenance::evict_front() {
  Pending& front = pending_.front();
  if (front.keep) {
    kept_.push_back(front.ev);
  } else {
    ++dropped_events_;
  }
  pending_.pop_front();
  ++pending_base_;
}

std::uint64_t Provenance::note_event(Round round, NodeIndex node,
                                     ProvEventKind kind, sim::MsgKind msg_kind,
                                     std::uint64_t a, std::uint64_t b,
                                     const Cause* causes,
                                     std::size_t cause_count,
                                     NodeIndex subject) {
  ProvEvent ev;
  ev.id = next_id_++;
  ev.round = round;
  ev.node = node;
  ev.subject = subject;
  ev.kind = kind;
  ev.msg_kind = msg_kind;
  ev.a = a;
  ev.b = b;
  const std::size_t stored = std::min(cause_count, kMaxProvCauses);
  ev.cause_count = static_cast<std::uint8_t>(stored);
  ev.causes_dropped = static_cast<std::uint16_t>(
      std::min<std::size_t>(cause_count - stored, 0xffff));
  for (std::size_t i = 0; i < stored; ++i) {
    ev.causes[i].sender = causes[i].sender;
    ev.causes[i].msg_kind = causes[i].msg_kind;
    ev.causes[i].bits = causes[i].bits;
    ev.causes[i].event = resolve_cause(causes[i].sender, node);
  }

  const bool keep = watch_all_ || watched(node) ||
                    (subject != kNoNode && watched(subject));
  if (keep) pin_causes(ev);

  if (node < frontier_.size()) frontier_[node] = ev.id;
  if (subject != kNoNode && (watch_all_ || watched(subject))) {
    last_about_[(static_cast<std::uint64_t>(node) << 32) | subject] = ev.id;
  }

  pending_.push_back(Pending{ev, keep});
  if (opts_.horizon > 0) {
    while (pending_.size() > opts_.horizon) evict_front();
  }
  return ev.id;
}

void Provenance::note_crash(Round round, NodeIndex victim) {
  note_event(round, victim, ProvEventKind::kCrashObserved, 0, 0, 0, nullptr,
             0);
}

void Provenance::note_spoof(Round round, NodeIndex sender, NodeIndex claimed,
                            sim::MsgKind kind, std::uint32_t bits,
                            std::uint64_t copies) {
  note_event(round, sender, ProvEventKind::kSpoofReject, kind, claimed,
             static_cast<std::uint64_t>(bits) * copies, nullptr, 0,
             /*subject=*/claimed);
}

void Provenance::mark_faulty(NodeIndex v) { faulty_.push_back(v); }

ProvenanceData Provenance::data() const {
  ProvenanceData out;
  out.algorithm = algorithm_;
  out.n = n_info_;
  out.f = f_info_;
  out.rounds = rounds_;
  if (!opts_.watch_nodes.empty()) {
    out.watch_mode = 1;
    out.watch_nodes = opts_.watch_nodes;
  } else if (opts_.sample > 0) {
    out.watch_mode = 2;
    out.watch_stride = stride_;
  }
  out.horizon = opts_.horizon;
  out.recorded_events = next_id_;
  out.dropped_events = dropped_events_;
  out.faulty = faulty_;
  std::sort(out.faulty.begin(), out.faulty.end());
  out.faulty.erase(std::unique(out.faulty.begin(), out.faulty.end()),
                   out.faulty.end());
  out.events = kept_;
  // Events still pending (end_run not called yet, test-only path) are
  // appended in id order so data() is always a coherent snapshot.
  for (const Pending& p : pending_) {
    if (p.keep) out.events.push_back(p.ev);
  }
  return out;
}

// --- binary format ----------------------------------------------------------
//
// "RNPV" magic, u32 version, then fixed-width little-endian fields in the
// exact order of the struct definitions — same discipline as the journal's
// RNMJ v1: no padding, every length stream-checked, incremental growth on
// read so a corrupt count cannot become an allocation.

namespace {

constexpr char kMagic[4] = {'R', 'N', 'P', 'V'};
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

void write_provenance_binary(std::ostream& out, const ProvenanceData& data) {
  out.write(kMagic, 4);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(data.algorithm.size()));
  out.write(data.algorithm.data(),
            static_cast<std::streamsize>(data.algorithm.size()));
  put_u64(out, data.n);
  put_u64(out, data.f);
  put_u32(out, data.rounds);
  put_u8(out, data.watch_mode);
  put_u32(out, data.watch_stride);
  put_u64(out, data.horizon);
  put_u64(out, data.recorded_events);
  put_u64(out, data.dropped_events);
  put_u32(out, static_cast<std::uint32_t>(data.watch_nodes.size()));
  for (NodeIndex v : data.watch_nodes) put_u32(out, v);
  put_u32(out, static_cast<std::uint32_t>(data.faulty.size()));
  for (NodeIndex v : data.faulty) put_u32(out, v);
  put_u64(out, data.events.size());
  for (const ProvEvent& e : data.events) {
    put_u64(out, e.id);
    put_u32(out, e.round);
    put_u32(out, e.node);
    put_u32(out, e.subject);
    put_u8(out, static_cast<std::uint8_t>(e.kind));
    put_u16(out, e.msg_kind);
    put_u64(out, e.a);
    put_u64(out, e.b);
    put_u16(out, e.causes_dropped);
    put_u8(out, e.cause_count);
    for (std::uint8_t i = 0; i < e.cause_count; ++i) {
      put_u32(out, e.causes[i].sender);
      put_u16(out, e.causes[i].msg_kind);
      put_u32(out, e.causes[i].bits);
      put_u64(out, e.causes[i].event);
    }
  }
}

bool read_provenance_binary(std::istream& in, ProvenanceData* data,
                            std::string* error) {
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() != 4 || magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    return fail(error, "not a renaming provenance file (bad magic)");
  }
  std::uint32_t version = 0;
  if (!get_u32(in, &version)) return fail(error, "truncated header");
  if (version != kVersion) {
    return fail(error, "unsupported provenance version");
  }
  ProvenanceData out;
  std::uint32_t algo_len = 0;
  if (!get_u32(in, &algo_len)) return fail(error, "truncated header");
  if (algo_len > 4096) return fail(error, "implausible algorithm name");
  out.algorithm.resize(algo_len);
  in.read(out.algorithm.data(), algo_len);
  if (in.gcount() != static_cast<std::streamsize>(algo_len)) {
    return fail(error, "truncated header");
  }
  std::uint32_t watch_count = 0;
  std::uint32_t faulty_count = 0;
  std::uint64_t event_count = 0;
  if (!get_u64(in, &out.n) || !get_u64(in, &out.f) ||
      !get_u32(in, &out.rounds) || !get_u8(in, &out.watch_mode) ||
      !get_u32(in, &out.watch_stride) || !get_u64(in, &out.horizon) ||
      !get_u64(in, &out.recorded_events) ||
      !get_u64(in, &out.dropped_events) || !get_u32(in, &watch_count)) {
    return fail(error, "truncated header");
  }
  if (out.watch_mode > 2) return fail(error, "unknown watch mode");
  // Grow incrementally: a corrupt count must not turn into an allocation.
  for (std::uint32_t i = 0; i < watch_count; ++i) {
    std::uint32_t v = 0;
    if (!get_u32(in, &v)) return fail(error, "truncated watch list");
    out.watch_nodes.push_back(v);
  }
  if (!get_u32(in, &faulty_count)) return fail(error, "truncated header");
  for (std::uint32_t i = 0; i < faulty_count; ++i) {
    std::uint32_t v = 0;
    if (!get_u32(in, &v)) return fail(error, "truncated faulty list");
    out.faulty.push_back(v);
  }
  if (!get_u64(in, &event_count)) return fail(error, "truncated header");
  for (std::uint64_t i = 0; i < event_count; ++i) {
    ProvEvent e;
    std::uint8_t kind = 0;
    if (!get_u64(in, &e.id) || !get_u32(in, &e.round) ||
        !get_u32(in, &e.node) || !get_u32(in, &e.subject) ||
        !get_u8(in, &kind) || !get_u16(in, &e.msg_kind) ||
        !get_u64(in, &e.a) || !get_u64(in, &e.b) ||
        !get_u16(in, &e.causes_dropped) || !get_u8(in, &e.cause_count)) {
      return fail(error, "truncated event record");
    }
    if (kind >= kProvEventKindCount) return fail(error, "unknown event kind");
    if (e.cause_count > kMaxProvCauses) {
      return fail(error, "implausible cause count");
    }
    e.kind = static_cast<ProvEventKind>(kind);
    for (std::uint8_t c = 0; c < e.cause_count; ++c) {
      if (!get_u32(in, &e.causes[c].sender) ||
          !get_u16(in, &e.causes[c].msg_kind) ||
          !get_u32(in, &e.causes[c].bits) ||
          !get_u64(in, &e.causes[c].event)) {
        return fail(error, "truncated cause record");
      }
    }
    out.events.push_back(e);
  }
  *data = std::move(out);
  return true;
}

void write_provenance_jsonl(std::ostream& out, const ProvenanceData& data) {
  out << "{\"schema\":\"renaming-provenance-v1\",\"algorithm\":\""
      << json_escape(data.algorithm) << "\",\"n\":" << data.n
      << ",\"f\":" << data.f
      << ",\"rounds\":" << data.rounds
      << ",\"watch_mode\":" << static_cast<unsigned>(data.watch_mode)
      << ",\"watch_stride\":" << data.watch_stride
      << ",\"horizon\":" << data.horizon
      << ",\"recorded_events\":" << data.recorded_events
      << ",\"dropped_events\":" << data.dropped_events << ",\"faulty\":[";
  bool first = true;
  for (NodeIndex v : data.faulty) {
    if (!first) out << ",";
    first = false;
    out << v;
  }
  out << "],\"events\":" << data.events.size() << "}\n";
  for (const ProvEvent& e : data.events) {
    out << "{\"id\":" << e.id << ",\"round\":" << e.round
        << ",\"node\":" << e.node << ",\"event\":\""
        << prov_event_name(e.kind) << "\"";
    if (e.subject != kNoNode) out << ",\"subject\":" << e.subject;
    if (e.msg_kind != 0) {
      out << ",\"msg_kind\":" << e.msg_kind << ",\"msg_name\":\""
          << sim::message_name(e.msg_kind) << "\"";
    }
    out << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"causes\":[";
    for (std::uint8_t i = 0; i < e.cause_count; ++i) {
      if (i > 0) out << ",";
      const ProvCause& c = e.causes[i];
      out << "{\"sender\":" << c.sender << ",\"kind\":" << c.msg_kind
          << ",\"bits\":" << c.bits;
      if (c.event != kNoProvEvent) out << ",\"event\":" << c.event;
      out << "}";
    }
    out << "]";
    if (e.causes_dropped > 0) {
      out << ",\"causes_dropped\":" << e.causes_dropped;
    }
    out << "}\n";
  }
}

}  // namespace renaming::obs
