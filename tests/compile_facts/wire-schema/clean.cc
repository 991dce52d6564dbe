// R9 wire widths, clean twin: a cached width minted by the schema.
#include <cstdint>

#include "sim/message.h"
#include "sim/wire_schema.h"

namespace renaming::baselines {

sim::Message naive_id(std::uint64_t id, const sim::wire::WireContext& ctx) {
  using sim::wire::Kind;
  const sim::WireBits bits = sim::wire::wire_bits(Kind::kNaiveId, ctx);
  return sim::make_message(sim::wire::raw(Kind::kNaiveId), bits, id);
}

}  // namespace renaming::baselines
