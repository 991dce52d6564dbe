#include "obs/provenance.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "obs/binio.h"
#include "obs/json.h"
#include "sim/wire_schema.h"

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

void Provenance::begin_run(NodeIndex n,
                           const sim::parallel::ShardMap* shards) {
  shards_.bind(shards);
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
  shards_.bind(nullptr);
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
  }
  if (shards_.running()) {
    shards_.at(node).push_back(ev);
    return kNoProvEvent;
  }
  return record(ev);
}

void Provenance::fold_shards() {
  shards_.fold([&](unsigned, std::vector<ProvEvent>& events) {
    for (const ProvEvent& ev : events) record(ev);
    events.clear();
  });
}

std::uint64_t Provenance::record(ProvEvent ev) {
  ev.id = next_id_++;
  for (std::uint8_t i = 0; i < ev.cause_count; ++i) {
    ev.causes[i].event = resolve_cause(ev.causes[i].sender, ev.node);
  }
  const NodeIndex node = ev.node;
  const NodeIndex subject = ev.subject;
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
// RNPV v1: the shared obs/binio.h header, then fixed-width fields in the
// exact order of the struct definitions (docs/OBSERVABILITY.md "Binary
// artifacts").

constexpr char kMagic[4] = {'R', 'N', 'P', 'V'};
constexpr std::uint32_t kVersion = 1;

void write_provenance_binary(std::ostream& out, const ProvenanceData& data) {
  binio::Writer w(out);
  w.header(kMagic, kVersion, data.algorithm, data.n);
  w.u64(data.f);
  w.u32(data.rounds);
  w.u8(data.watch_mode);
  w.u32(data.watch_stride);
  w.u64(data.horizon);
  w.u64(data.recorded_events);
  w.u64(data.dropped_events);
  w.u32(static_cast<std::uint32_t>(data.watch_nodes.size()));
  for (NodeIndex v : data.watch_nodes) w.u32(v);
  w.u32(static_cast<std::uint32_t>(data.faulty.size()));
  for (NodeIndex v : data.faulty) w.u32(v);
  w.u64(data.events.size());
  for (const ProvEvent& e : data.events) {
    w.u64(e.id);
    w.u32(e.round);
    w.u32(e.node);
    w.u32(e.subject);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u16(e.msg_kind);
    w.u64(e.a);
    w.u64(e.b);
    w.u16(e.causes_dropped);
    w.u8(e.cause_count);
    for (std::uint8_t i = 0; i < e.cause_count; ++i) {
      w.u32(e.causes[i].sender);
      w.u16(e.causes[i].msg_kind);
      w.u32(e.causes[i].bits);
      w.u64(e.causes[i].event);
    }
  }
}

bool read_provenance_binary(std::istream& in, ProvenanceData* data,
                            std::string* error) {
  binio::Reader r(in, error);
  ProvenanceData out;
  if (!r.header(kMagic, kVersion, &out.algorithm, &out.n)) return false;
  out.f = r.u64();
  out.rounds = r.u32();
  out.watch_mode = r.u8();
  out.watch_stride = r.u32();
  out.horizon = r.u64();
  out.recorded_events = r.u64();
  out.dropped_events = r.u64();
  if (!r.ok("header")) return false;
  if (out.watch_mode > 2) return r.fail("unknown watch mode");
  for (std::vector<NodeIndex>* nodes : {&out.watch_nodes, &out.faulty}) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && r.ok("node list"); ++i) {
      nodes->push_back(r.u32());
    }
  }
  const std::uint64_t event_count = r.u64();
  if (!r.ok("header")) return false;
  for (std::uint64_t i = 0; i < event_count; ++i) {
    // Braced initializers evaluate left to right: fields in file order.
    ProvEvent e{r.u64(), r.u32(), r.u32(), r.u32(),
                static_cast<ProvEventKind>(r.u8()), r.u16(), r.u64(),
                r.u64(), r.u16(), r.u8(), {}};
    if (!r.ok("event record")) return false;
    if (static_cast<std::uint8_t>(e.kind) >= kProvEventKindCount) {
      return r.fail("unknown event kind");
    }
    if (e.cause_count > kMaxProvCauses) {
      return r.fail("implausible cause count");
    }
    // The doctor resolves cause links by binary search over the ids.
    if (!out.events.empty() && e.id <= out.events.back().id) {
      return r.fail("event ids not strictly ascending");
    }
    for (std::uint8_t c = 0; c < e.cause_count; ++c) {
      e.causes[c] = {r.u32(), r.u16(), r.u32(), r.u64()};
    }
    if (!r.ok("cause record")) return false;
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
