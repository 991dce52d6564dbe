// Byzantine node strategies ("Carlo"'s arsenal).
//
// A Byzantine node may deviate arbitrarily; the strategies here target the
// specific mechanisms the algorithm defends with:
//
//  * SilentNode          — simulates a crash (the paper notes Byzantine
//                          subsumes crash behaviour).
//  * SplitReporter       — reports its identity to only half of the
//                          committee, driving the correct members' identity
//                          lists apart: this is the force behind the
//                          divide-and-conquer splitting (Lemma 3.10).
//  * LyingMember         — a corrupted committee member: equivocates in
//                          Validator/Consensus/DIFF traffic per recipient,
//                          sends premature fake NEW messages, and skews the
//                          ranks it distributes.
//  * Spoofer             — attempts to forge both the transport origin and
//                          the claimed identity; exists to show the
//                          authentication layer is load-bearing.
//
// LyingMember and SplitReporter stay in lockstep by running the honest
// state machine internally and corrupting its outbox — the standard
// honest-but-corrupted-output construction. (Their announcements are
// broadcast-or-nothing; see DESIGN.md on committee-view consistency.)
#pragma once

#include <memory>

#include "byzantine/byz_renaming.h"
#include "common/prng.h"
#include "core/directory.h"
#include "sim/node.h"
#include "sim/wire_schema.h"

namespace renaming::byzantine {

class SilentNode final : public sim::Node {
 public:
  void send(Round, sim::Outbox&) override {}
  void receive(Round, sim::InboxView) override {}
  bool done() const override { return true; }
  bool idle() const override { return true; }  // both callbacks are no-ops
};

/// Runs the honest protocol but lets a strategy rewrite the outbox.
class CorruptedNode : public sim::Node {
 public:
  CorruptedNode(NodeIndex self, const SystemConfig& cfg,
                const Directory& directory, const ByzParams& params)
      : self_(self),
        n_(cfg.n),
        honest_(self, cfg, directory, params, views_),
        rng_(SplitMix64(cfg.seed ^ 0xBADBADULL).next() + self) {}

  void send(Round round, sim::Outbox& out) override {
    // Last round's staged blobs (ablation A2's identity vectors) were read
    // through `out` during that round's receive phase; only now are they
    // dead.
    staged_.clear();
    honest_.send(round, staged_);
    corrupt(round, staged_, out);
  }

  void receive(Round round, sim::InboxView inbox) override {
    honest_.receive(round, inbox);
  }

  bool done() const override { return true; }  // Byzantine: never awaited

 protected:
  using Kind = sim::wire::Kind;
  using Outbox = sim::Outbox;

  /// Forwards, edits or drops the staged copies into `out`, walking them
  /// per recipient (Outbox::for_each_copy) to split or equivocate.
  virtual void corrupt(Round round, const Outbox& staged, Outbox& out) = 0;

  NodeIndex self_;
  NodeIndex n_;
  /// The core's own view pool: only this node's callbacks touch it.
  consensus::ViewInterner views_;
  ByzNode honest_;
  Xoshiro256 rng_;

 private:
  /// The honest core's outbox, reused across rounds. It owns the blobs of
  /// the messages corrupt() forwards to the engine's outbox.
  sim::Outbox staged_{self_, n_};
};

/// A strategy whose corrupt() only drops or edits what the honest core
/// staged, and sends nothing of its own. An idle core then means an empty
/// outbox and no RNG draw, so the node keeps the Node::idle contract by
/// forwarding the core's idle(), and the engine skips it exactly when it
/// would skip the core (docs/ADVERSARIES.md).
class PureFilter : public CorruptedNode {
 public:
  using CorruptedNode::CorruptedNode;
  bool idle() const override { return honest_.idle(); }
};

/// Reports its identity to only the even-indexed committee members.
class SplitReporter final : public PureFilter {
 public:
  using PureFilter::PureFilter;

  static std::unique_ptr<sim::Node> make(NodeIndex self,
                                         const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
    return std::make_unique<SplitReporter>(self, cfg, directory, params);
  }

 private:
  void corrupt(Round round, const Outbox& staged, Outbox& out) override {
    std::size_t report_index = 0;
    staged.for_each_copy([&](NodeIndex dest, const sim::Message& msg) {
      if (round == 2 && msg.kind == sim::wire::raw(Kind::kIdReport)) {
        if (report_index++ % 2 == 1) return;  // starve odd members
      }
      out.send(dest, msg);
    });
  }
};

/// A corrupted committee member: per-recipient equivocation everywhere.
/// Not a PureFilter: its round-3 fake-NEW volley does not depend on the
/// core, so it must run even while the core is idle.
class LyingMember final : public CorruptedNode {
 public:
  using CorruptedNode::CorruptedNode;

  static std::unique_ptr<sim::Node> make(NodeIndex self,
                                         const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
    return std::make_unique<LyingMember>(self, cfg, directory, params);
  }

 private:
  void corrupt(Round round, const Outbox& staged, Outbox& out) override {
    staged.for_each_copy([&](NodeIndex dest, sim::Message msg) {
      switch (static_cast<Kind>(msg.kind)) {
        case Kind::kValidator:
        case Kind::kConsensus:
          // Equivocate: flip the value payload for a random half of the
          // recipients; scramble fingerprints entirely now and then.
          if (rng_.chance(0.5)) msg.w[2] ^= 1;
          if (msg.nwords >= 4 && rng_.chance(0.25)) msg.w[3] = rng_();
          break;
        case Kind::kDiff:
          if (rng_.chance(0.5)) msg.w[1] ^= 1;
          break;
        case Kind::kNew:
          // Skew half the distributed ranks by one; zero out some others.
          if (rng_.chance(0.3)) {
            msg.w[0] += 1;
          } else if (rng_.chance(0.2)) {
            msg.w[0] = 0;
          }
          break;
        default:
          break;
      }
      out.send(dest, msg);
    });
    // Premature fake NEW volley: tries to trick nodes into deciding early.
    // The declared width is the named adversarial probe constant, not the
    // honest NEW schema — the attacker pays for what it actually sends.
    if (round == 3) {
      for (NodeIndex d = 0; d < n_; ++d) {
        out.send(d, sim::make_message(sim::wire::raw(Kind::kNew),
                                      sim::wire::ProbeWidths::kForgedNew,
                                      1 + rng_.below(n_)));
      }
    }
  }
};

/// Attempts transport-origin forgery plus identity forgery.
class Spoofer final : public CorruptedNode {
 public:
  using CorruptedNode::CorruptedNode;

  static std::unique_ptr<sim::Node> make(NodeIndex self,
                                         const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
    return std::make_unique<Spoofer>(self, cfg, directory, params);
  }

 private:
  void corrupt(Round round, const Outbox& staged, Outbox& out) override {
    staged.for_each_copy(
        [&](NodeIndex dest, const sim::Message& msg) { out.send(dest, msg); });
    if (round <= 2) {
      // Forge transport origin (engine drops + counts these) and claim
      // identities we do not own (receivers' certificate check drops them).
      for (NodeIndex d = 0; d < n_; ++d) {
        sim::Message forged = sim::make_message(
            sim::wire::raw(round == 1 ? Kind::kElect : Kind::kIdReport),
            sim::wire::ProbeWidths::kSpoof, rng_.below(1u << 30) + 1);
        forged.claimed_sender = static_cast<NodeIndex>((self_ + 1) % n_);
        out.send(d, forged);
      }
    }
  }
};


/// Reports its identity to a contiguous *prefix* of the committee (by view
/// order). Unlike SplitReporter's even/odd split, a prefix split puts the
/// disagreement boundary through the quorum structure asymmetrically —
/// the Validator sees "almost a quorum" instead of a clean half/half.
class PrefixReporter final : public PureFilter {
 public:
  using PureFilter::PureFilter;

  static std::unique_ptr<sim::Node> make(NodeIndex self,
                                         const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
    return std::make_unique<PrefixReporter>(self, cfg, directory, params);
  }

 private:
  void corrupt(Round round, const Outbox& staged, Outbox& out) override {
    const std::size_t total = staged.size();
    std::size_t index = 0;
    staged.for_each_copy([&](NodeIndex dest, const sim::Message& msg) {
      if (round == 2 &&
          msg.kind == sim::wire::raw(Kind::kIdReport)) {
        // Keep roughly two thirds: just below the m - t quorum at t ~ m/3.
        if (index++ * 3 >= total * 2) return;
      }
      out.send(dest, msg);
    });
  }
};

/// Combines the two attacks: splits its identity report (forcing the
/// divide-and-conquer to work) AND equivocates inside every consensus
/// instance that work triggers.
class DoubleDealer final : public PureFilter {
 public:
  using PureFilter::PureFilter;

  static std::unique_ptr<sim::Node> make(NodeIndex self,
                                         const SystemConfig& cfg,
                                         const Directory& directory,
                                         const ByzParams& params) {
    return std::make_unique<DoubleDealer>(self, cfg, directory, params);
  }

 private:
  void corrupt(Round round, const Outbox& staged, Outbox& out) override {
    std::size_t report_index = 0;
    staged.for_each_copy([&](NodeIndex dest, sim::Message msg) {
      switch (static_cast<Kind>(msg.kind)) {
        case Kind::kIdReport:
          if (round == 2 && report_index++ % 2 == 1) return;
          break;
        case Kind::kValidator:
        case Kind::kConsensus:
          if (rng_.chance(0.5)) msg.w[2] ^= 1;
          break;
        case Kind::kDiff:
          if (rng_.chance(0.5)) msg.w[1] ^= 1;
          break;
        case Kind::kNew:
          if (rng_.chance(0.5)) msg.w[0] = rng_.below(1u << 20);
          break;
        default:
          break;
      }
      out.send(dest, msg);
    });
  }
};

}  // namespace renaming::byzantine
