// R9 wire widths, planted violation: a hand-written integer width. Only
// wire::wire_bits() and the named probe constants mint a sim::WireBits,
// so the literal does not convert.
#include <cstdint>

#include "sim/message.h"
#include "sim/wire_schema.h"

namespace renaming::baselines {

sim::Message naive_id(std::uint64_t id, const sim::wire::WireContext& ctx) {
  using sim::wire::Kind;
  (void)ctx;
  return sim::make_message(sim::wire::raw(Kind::kNaiveId), 42, id);
}

}  // namespace renaming::baselines
