#include "obs/progress.h"

#include <ostream>

#include "obs/json.h"
#include "obs/rss.h"
#include "obs/telemetry.h"  // now_ns(): the sanctioned clock

namespace renaming::obs {

Progress::Progress() : Progress(Options{}) {}

Progress::Progress(Options opts) : opts_(opts) {
  if (opts_.every_rounds == 0) opts_.every_rounds = 1;
  if (opts_.ring_capacity > 0) ring_.reserve(opts_.ring_capacity);
}

void Progress::begin_run(NodeIndex n) {
  n_ = n;
  ring_.clear();
  head_ = 0;
  ring_dropped_ = 0;
  sampled_ = 0;
  last_sampled_round_ = 0;
  last_messages_ = 0;
  last_bits_ = 0;
  run_begin_ns_ = now_ns();
  last_sample_ns_ = run_begin_ns_;
  if (sink_ != nullptr) {
    *sink_ << "{\"schema\":\"" << kProgressSchema << "\",\"algorithm\":\""
           << json_escape(algorithm_) << "\",\"n\":" << n_ << "}\n";
    sink_->flush();
  }
}

void Progress::on_round_end(Round round, std::uint64_t messages,
                            std::uint64_t bits, std::uint64_t active_senders,
                            std::uint64_t crashes, std::uint64_t outbox_live) {
  // Remember the latest counters so end_run can sample the final round
  // even when the cadence skipped it.
  last_messages_ = messages;
  last_bits_ = bits;
  if (opts_.min_interval_ns > 0) {
    if (now_ns() - last_sample_ns_ < opts_.min_interval_ns) return;
  } else if (round % opts_.every_rounds != 0) {
    return;
  }
  sample(round, messages, bits, active_senders, crashes, outbox_live);
}

void Progress::sample(Round round, std::uint64_t messages, std::uint64_t bits,
                      std::uint64_t active_senders, std::uint64_t crashes,
                      std::uint64_t outbox_live) {
  const std::int64_t now = now_ns();
  ProgressSnapshot s;
  s.round = round;
  s.messages = messages;
  s.bits = bits;
  s.active_senders = active_senders;
  s.crashes = crashes;
  s.outbox_live = outbox_live;
  s.wall_ns = now - run_begin_ns_;
  const Round covered =
      round > last_sampled_round_ ? round - last_sampled_round_ : 1;
  const std::int64_t dt = now - last_sample_ns_;
  s.round_wall_ns = (dt < 0 ? 0 : dt) / static_cast<std::int64_t>(covered);
  s.peak_rss_bytes = peak_rss_bytes();
  if (s.wall_ns > 0) {
    s.events_per_sec = static_cast<double>(messages) * 1e9 /
                       static_cast<double>(s.wall_ns);
  }

  if (opts_.ring_capacity == 0 || ring_.size() < opts_.ring_capacity) {
    ring_.push_back(s);
  } else {
    ring_[head_] = s;
    head_ = (head_ + 1) % opts_.ring_capacity;
    ++ring_dropped_;
  }
  ++sampled_;
  last_sampled_round_ = round;
  last_sample_ns_ = now;

  if (sink_ != nullptr) {
    write_record(*sink_, s);
    sink_->flush();  // a heartbeat that buffers is not a heartbeat
  }
}

void Progress::end_run(Round last_round) {
  if (last_round > last_sampled_round_) {
    // The cadence missed the final round; the closing sample uses the
    // counters remembered from its on_round_end. Active set and outbox
    // occupancy are 0 here by convention (the run is over).
    sample(last_round, last_messages_, last_bits_, 0, 0, 0);
  }
  if (sink_ != nullptr) {
    const std::int64_t wall = now_ns() - run_begin_ns_;
    *sink_ << "{\"done\":true,\"rounds\":" << last_round
           << ",\"messages\":" << last_messages_ << ",\"bits\":" << last_bits_
           << ",\"sampled\":" << sampled_ << ",\"wall_ns\":" << wall
           << ",\"peak_rss_bytes\":" << peak_rss_bytes() << "}\n";
    sink_->flush();
  }
}

std::vector<ProgressSnapshot> Progress::snapshots() const {
  std::vector<ProgressSnapshot> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Progress::write_record(std::ostream& out, const ProgressSnapshot& s,
                            bool deterministic_only) {
  out << "{\"round\":" << s.round << ",\"messages\":" << s.messages
      << ",\"bits\":" << s.bits << ",\"active\":" << s.active_senders
      << ",\"crashes\":" << s.crashes;
  if (!deterministic_only) {
    out << ",\"outboxes\":" << s.outbox_live << ",\"wall_ns\":" << s.wall_ns
        << ",\"round_wall_ns\":" << s.round_wall_ns
        << ",\"peak_rss_bytes\":" << s.peak_rss_bytes << ",\"events_per_sec\":"
        << static_cast<std::uint64_t>(s.events_per_sec);
  }
  out << "}\n";
}

}  // namespace renaming::obs
