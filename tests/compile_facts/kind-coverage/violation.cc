// R11 kind coverage, planted violation: a message-kind row keyed by a bare
// number. WireSchema::kind is a Kind, a scoped enum, so the integer does
// not convert and a row cannot name a kind no enumerator declares.
#include "obs/phase.h"
#include "sim/wire_schema.h"

namespace renaming::sim::wire {

inline constexpr WireSchema kRow = {
    30, "NAIVE_ID", false, obs::PhaseId::kBaselineExchange, 1,
    {{"id", Width::kLogNamespace}}};

}  // namespace renaming::sim::wire
